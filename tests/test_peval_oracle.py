"""Differential test: the closure-compiled specializer against the tree
walk it replaced (``tests/pe_walker.py``).

Both must print the same residual, which pins the order in which fresh
names are drawn, or raise the same error class with the same message.
"""

from __future__ import annotations

import random

import pytest

from retargeter import peval
from retargeter.analyzer import build_abstract_interpreter
from retargeter.domains import DOMAINS, TOP
from retargeter.errors import FuelExhausted, ReifyError, StuckError
from retargeter.met.parser import parse_met
from retargeter.met.printer import print_met
from retargeter.met.syntax import (
    Lambda,
    Let,
    Match,
    PConstruct,
    Proj1,
    Proj2,
    PTuple,
    PVar,
    Tuple,
    VAbs,
    VClosure,
    VConstruct,
    VInt,
    VTuple,
    Var,
)
from retargeter.retargeting import retarget
from retargeter.srclang import (
    SRC_SIGNATURE,
    embed_src_expr,
    random_src_expr,
    random_src_value,
    shape_of,
)
from retargeter.tgtlang import TARGETS, interpreter_fixture

import pe_walker
from astgen import NAMES, random_met_expr
from corpus import CORPUS


def outcome(specialize, expr, static_input):
    try:
        return "residual", print_met(specialize(expr, static_input))
    except (StuckError, ReifyError, FuelExhausted) as exc:
        return type(exc).__name__, str(exc)


def assert_same(expr, static_input):
    compiled = outcome(peval.specialize, expr, static_input)
    walked = outcome(pe_walker.specialize, expr, static_input)
    assert compiled == walked, (print_met(expr), static_input)
    return compiled


def set_unfold_limit(monkeypatch, limit):
    monkeypatch.setattr(peval, "UNFOLD_LIMIT", limit)
    monkeypatch.setattr(pe_walker, "UNFOLD_LIMIT", limit)


@pytest.mark.parametrize("target", TARGETS)
def test_builtin_fixtures(target):
    expected = outcome(pe_walker.specialize, build_abstract_interpreter(),
                       embed_src_expr(interpreter_fixture(target)))
    for domain in DOMAINS:
        assert ("residual", print_met(retarget(target, domain).residual)) == expected


@pytest.mark.parametrize("target, unfolds", [("single", 19), ("seq2", 60)])
def test_unfold_counts(monkeypatch, target, unfolds):
    # The fixture specializes with exactly `unfolds` unfoldings and not
    # with one fewer, in both specializers.
    static_input = embed_src_expr(interpreter_fixture(target))
    set_unfold_limit(monkeypatch, unfolds)
    assert assert_same(build_abstract_interpreter(), static_input)[0] == "residual"
    set_unfold_limit(monkeypatch, unfolds - 1)
    assert assert_same(build_abstract_interpreter(), static_input) == (
        "FuelExhausted", f"specialization exceeded {unfolds - 1} call unfoldings")


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_corpus(entry):
    rng = random.Random(entry.name)
    for _ in range(20):
        static_input, _ = entry.gen(rng)
        assert_same(entry.expr, static_input)


def test_random_source_programs():
    interpreter = build_abstract_interpreter()
    cases = 0
    for seed in range(6):
        rng = random.Random(seed)
        for depth in range(1, 8):
            for _ in range(8):
                shape = shape_of(random_src_value(rng, 2, 100))
                program = random_src_expr(rng, shape, depth, magnitude_bound=100)
                assert assert_same(interpreter, embed_src_expr(program))[0] == "residual"
                cases += 1
    assert cases >= 300


TAGS = list(SRC_SIGNATURE.items())


def random_static(rng: random.Random, depth: int):
    """A known first component: mostly data, sometimes a closure or an
    abstract value, which have no literal syntax."""
    kind = rng.choice(["int", "int", "tuple", "construct", "closure", "abstract"]
                      if depth > 0 else ["int", "construct"])
    if kind == "int":
        return VInt(rng.randint(-3, 3))
    if kind == "tuple":
        return VTuple(random_static(rng, depth - 1), random_static(rng, depth - 1))
    if kind == "construct":
        tag, arity = rng.choice(TAGS) if depth > 0 else ("X", 0)
        return VConstruct(tag, tuple(random_static(rng, depth - 1) for _ in range(arity)))
    if kind == "closure":
        return VClosure(rng.choice(NAMES), random_met_expr(rng, 2), {},
                        rng.choice([None, rng.choice(NAMES)]))
    return VAbs(TOP)


def random_program(rng: random.Random):
    """A function over a pair.  Half of them first bind the two
    components to names the body is likely to use, so that the unknown
    one reaches residual lets, matches and applications."""
    body = random_met_expr(rng, rng.randint(1, 5))
    if rng.random() < 0.5:
        return Lambda(rng.choice(NAMES), body)
    known, unknown = rng.sample(NAMES[:3], 2)
    return Lambda("x", Let(known, Proj1(Var("x")), Let(unknown, Proj2(Var("x")), body)))


def test_random_meta_programs(monkeypatch):
    # A low limit keeps runaway unfolding cheap and far from the host
    # stack's depth, where the two specializers may differ.
    set_unfold_limit(monkeypatch, 40)
    seen = {}
    for seed in range(1200):
        rng = random.Random(seed)
        expr = random_program(rng)
        kind, text = assert_same(expr, random_static(rng, 3))
        if kind != "residual":
            text = text.split(" '")[0].split(" at ")[0]
        seen[kind if kind == "residual" else (kind, text)] = True
    # The programs reach each way a specialization can fail.
    for expected in [
        "residual",
        ("StuckError", "unbound variable"),
        ("StuckError", "projection of a non-tuple"),
        ("StuckError", "application of a non-function"),
        ("StuckError", "no branch matches"),
        ("ReifyError", "a closure has no literal syntax"),
    ]:
        assert expected in seen, (expected, sorted(map(str, seen)))


# A ``match`` on a known value tries only the branches that can match its
# constructor tag.  These cases pin that dispatch, and the pattern
# binders it calls, against the tree walk, which tries every branch.
NUM5 = VConstruct("Num", (VInt(5),))
ADD12 = VConstruct("Add", (VInt(1), VInt(2)))

CONSTRUCTORS_AHEAD = ("fun x -> match fst x with | Num(n) -> n | X -> 0 | 3 -> snd x "
                      "| (a, b) -> (b, snd x) "
                      "| v -> let y = snd x in match y with | 0 -> v | m -> (m, v)")
ONLY_CONSTRUCTORS = "fun x -> match fst x with | Num(n) -> n | X -> snd x | Add(a, b) -> a"
NESTED_CONSTRUCTOR = ("fun x -> match x with | (Num(n), d) -> (n, d) | (X, d) -> d "
                      "| (Add(a, b), d) -> (b, d) | (Fst(0), d) -> (d, d) | (p, q) -> (q, p)")


@pytest.mark.parametrize("text, static_input, expected", [
    # A known integer or tuple skips the constructor branches ahead of
    # the one that matches.
    (CONSTRUCTORS_AHEAD, VInt(3), ("residual", "fun i -> i")),
    (CONSTRUCTORS_AHEAD, VTuple(VInt(1), VInt(2)), ("residual", "fun i -> (2, i)")),
    (CONSTRUCTORS_AHEAD, VTuple(NUM5, VInt(4)), ("residual", "fun i -> (4, i)")),
    (CONSTRUCTORS_AHEAD, VInt(4),
     ("residual", "fun i -> let y = i in match y with | 0 -> 4 | m -> (m, 4)")),
    (CONSTRUCTORS_AHEAD, NUM5, ("residual", "fun i -> 5")),
    (CONSTRUCTORS_AHEAD, ADD12,
     ("residual", "fun i -> let y = i in match y with | 0 -> Add(1, 2) | m -> (m, Add(1, 2))")),
    # With only constructor branches, nothing else matches.
    (ONLY_CONSTRUCTORS, VTuple(VInt(1), VInt(2)),
     ("StuckError", "no branch matches at specialization time")),
    (ONLY_CONSTRUCTORS, VInt(0), ("StuckError", "no branch matches at specialization time")),
    (ONLY_CONSTRUCTORS, VConstruct("Num", ()),
     ("StuckError", "no branch matches at specialization time")),
    (ONLY_CONSTRUCTORS, VConstruct("X", (VInt(1),)),
     ("StuckError", "no branch matches at specialization time")),
    (ONLY_CONSTRUCTORS, VConstruct("Mul", (VInt(1), VInt(2))),
     ("StuckError", "no branch matches at specialization time")),
    (ONLY_CONSTRUCTORS, VConstruct("X", ()), ("residual", "fun i -> i")),
    (ONLY_CONSTRUCTORS, ADD12, ("residual", "fun i -> 1")),
    # A constructor inside a tuple pattern, matched against the known
    # half of a split tuple, checks its own tag and arity.
    (NESTED_CONSTRUCTOR, NUM5, ("residual", "fun i -> (5, i)")),
    (NESTED_CONSTRUCTOR, VConstruct("X", ()), ("residual", "fun i -> i")),
    (NESTED_CONSTRUCTOR, ADD12, ("residual", "fun i -> (2, i)")),
    (NESTED_CONSTRUCTOR, VConstruct("Num", ()), ("residual", "fun i -> (i, Num)")),
    (NESTED_CONSTRUCTOR, VConstruct("Mul", (VInt(1), VInt(2))),
     ("residual", "fun i -> (i, Mul(1, 2))")),
    (NESTED_CONSTRUCTOR, VConstruct("Fst", (VInt(0),)), ("residual", "fun i -> (i, i)")),
    (NESTED_CONSTRUCTOR, VConstruct("Snd", (VInt(0),)), ("residual", "fun i -> (i, Snd(0))")),
    (NESTED_CONSTRUCTOR, VConstruct("Fst", (VInt(0), VInt(1))),
     ("residual", "fun i -> (i, Fst(0, 1))")),
    (NESTED_CONSTRUCTOR, VTuple(NUM5, VInt(3)), ("residual", "fun i -> (i, (Num(5), 3))")),
])
def test_static_match_dispatch(text, static_input, expected):
    assert assert_same(parse_met(text), static_input) == expected


def test_later_bindings_win_in_a_static_match():
    # The parser rejects a pattern that binds a name twice: built directly.
    expr = Lambda("x", Match(Proj1(Var("x")), (
        (PConstruct("Add", (PVar("a"), PVar("a"))), Var("a")),
        (PTuple(PVar("a"), PTuple(PVar("b"), PVar("a"))), Tuple(Var("a"), Var("b"))),
    )))
    assert assert_same(expr, ADD12) == ("residual", "fun i -> 2")
    assert assert_same(expr, VTuple(VInt(1), VTuple(VInt(2), VInt(3)))) == (
        "residual", "fun i -> (3, 2)")
