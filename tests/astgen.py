"""Seeded random meta-language ASTs for round-trip and property tests.

Generated trees are syntactically valid (signature-respecting
constructor arities, linear patterns) but not necessarily well-typed or
well-scoped; the printer/parser round trip does not care.
"""

from __future__ import annotations

import random

from retargeter.met.syntax import (
    App,
    Construct,
    IntLit,
    Lambda,
    Let,
    LetRecFun,
    Match,
    MetExpr,
    PConstruct,
    PInt,
    PTuple,
    PVar,
    PWild,
    Pattern,
    Prim,
    PrimOp,
    Proj1,
    Proj2,
    Tuple,
    Var,
)
from retargeter.srclang import SRC_SIGNATURE

NAMES = ["a", "b", "c", "f", "g", "h", "acc", "tmp", "v1", "p2"]
TAGS = list(SRC_SIGNATURE.items())


def random_pattern(rng: random.Random, depth: int, taken: set[str]) -> Pattern:
    def fresh_var() -> Pattern:
        free = [n for n in NAMES if n not in taken]
        if not free:
            return PWild()
        name = rng.choice(free)
        taken.add(name)
        return PVar(name)

    kinds = ["var", "wild", "int"]
    if depth > 0:
        kinds += ["tuple", "construct"]
    kind = rng.choice(kinds)
    if kind == "var":
        return fresh_var()
    if kind == "wild":
        return PWild()
    if kind == "int":
        return PInt(rng.randint(-99, 99))
    if kind == "tuple":
        return PTuple(random_pattern(rng, depth - 1, taken),
                      random_pattern(rng, depth - 1, taken))
    tag, arity = rng.choice(TAGS)
    return PConstruct(tag, tuple(random_pattern(rng, depth - 1, taken)
                                 for _ in range(arity)))


def random_met_expr(rng: random.Random, depth: int) -> MetExpr:
    if depth <= 0:
        leaf = rng.choice(["int", "var", "nullary"])
        if leaf == "int":
            return IntLit(rng.randint(-999, 999))
        if leaf == "var":
            return Var(rng.choice(NAMES))
        return Construct("X", ())

    kind = rng.choice([
        "int", "var", "tuple", "proj1", "proj2", "construct", "match",
        "let", "letrec", "lambda", "app", "prim",
    ])
    sub = lambda: random_met_expr(rng, depth - 1)
    if kind == "int":
        return IntLit(rng.randint(-999, 999))
    if kind == "var":
        return Var(rng.choice(NAMES))
    if kind == "tuple":
        return Tuple(sub(), sub())
    if kind == "proj1":
        return Proj1(sub())
    if kind == "proj2":
        return Proj2(sub())
    if kind == "construct":
        tag, arity = rng.choice(TAGS)
        return Construct(tag, tuple(sub() for _ in range(arity)))
    if kind == "match":
        branches = tuple(
            (random_pattern(rng, 2, set()), sub())
            for _ in range(rng.randint(1, 3))
        )
        return Match(sub(), branches)
    if kind == "let":
        return Let(rng.choice(NAMES), sub(), sub())
    if kind == "letrec":
        return LetRecFun(rng.choice(NAMES), rng.choice(NAMES), sub(), sub())
    if kind == "lambda":
        return Lambda(rng.choice(NAMES), sub())
    if kind == "app":
        return App(sub(), sub())
    op = rng.choice(list(PrimOp))
    return Prim(op, tuple(sub() for _ in range(op.arity)))
