"""The printer against ``match_printer``, the printer it replaced.

Both print the same trees: random ASTs, the residuals of every
target×domain pair, the abstract interpreter, and the residuals of random
source programs.  Each must give the same text from both, the same
pattern text for every pattern in them and for random patterns, and the
same node census, keys in the same order.  A value that is not a node
must fail with the same ``TypeError`` from both printers, and from the
census when it stands where an expression should.

Runs under pytest, or alone without it::

    PYTHONPATH=src python tests/test_met_printer_oracle.py
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest

import match_printer
from astgen import random_met_expr, random_pattern
from retargeter.analyzer import build_abstract_interpreter
from retargeter.domains import DOMAINS
from retargeter.met.printer import count_nodes, print_met, print_pattern
from retargeter.met.syntax import (
    App,
    Construct,
    IntLit,
    Lambda,
    Let,
    LetRecFun,
    Match,
    MetExpr,
    PInt,
    Prim,
    PrimOp,
    Proj1,
    Proj2,
    PTuple,
    PVar,
    PWild,
    Tuple,
    Var,
)
from retargeter.peval import specialize
from retargeter.retargeting import retarget
from retargeter.srclang import embed_src_expr, random_src_expr
from retargeter.tgtlang import TARGETS

SOURCE_RESIDUALS = 120

# One-hole contexts: every node kind with the hole in each of its child
# positions, a non-final ``match`` branch included.  Filling them into
# each other puts every kind in every position of every other kind, which
# is where precedence and the '|' rule decide the parentheses.
CONTEXTS = [
    lambda e: Tuple(e, Var("a")), lambda e: Tuple(Var("a"), e),
    Proj1, Proj2,
    lambda e: Construct("Add", (e, Var("a"))), lambda e: Construct("Add", (Var("a"), e)),
    lambda e: Match(e, ((PVar("a"), Var("a")),)),
    lambda e: Match(Var("a"), ((PInt(0), e), (PWild(), Var("b")))),
    lambda e: Match(Var("a"), ((PWild(), e),)),
    lambda e: Let("a", e, Var("a")), lambda e: Let("a", Var("b"), e),
    lambda e: LetRecFun("f", "a", e, Var("f")), lambda e: LetRecFun("f", "a", Var("a"), e),
    lambda e: Lambda("a", e),
    lambda e: App(e, Var("a")), lambda e: App(Var("f"), e),
    *[lambda e, op=op: Prim(op, (e, Var("a"))) for op in (PrimOp.ADD, PrimOp.MUL, PrimOp.EQ)],
    *[lambda e, op=op: Prim(op, (Var("a"), e)) for op in (PrimOp.ADD, PrimOp.MUL, PrimOp.EQ)],
    lambda e: Prim(PrimOp.ETA, (e,)),
]
LEAVES = [Var("x"), IntLit(-1), Construct("X", ())]


@functools.cache
def trees() -> tuple:
    rng = random.Random(8)
    out = [random_met_expr(rng, rng.randint(0, 5)) for _ in range(300)]
    out += [retarget(t, d).residual for t in TARGETS for d in DOMAINS.values()]
    out.append(build_abstract_interpreter())
    level = LEAVES
    for _ in range(3):
        level = [wrap(e) for wrap in CONTEXTS for e in level]
        out += level
    rng = random.Random(17)
    for _ in range(SOURCE_RESIDUALS):
        program = random_src_expr(rng, "int", rng.randint(3, 7))
        out.append(specialize(build_abstract_interpreter(), embed_src_expr(program)))
    return tuple(out)


def patterns_in(tree) -> list:
    """Every pattern of every ``match`` in ``tree``."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Match):
            found += [pat for pat, _ in node.branches]
            stack += [node.scrutinee, *[body for _, body in node.branches]]
            continue
        for value in (getattr(node, f.name) for f in dataclasses.fields(node)):
            stack += [v for v in (value if isinstance(value, tuple) else (value,))
                      if isinstance(v, MetExpr)]
    return found


def outcome(fn, value):
    try:
        return fn(value)
    except TypeError as err:
        return TypeError, str(err)


def test_trees_print_and_count_alike():
    differences = []
    for tree in trees():
        old = (match_printer.print_met(tree), list(match_printer.count_nodes(tree).items()))
        new = (print_met(tree), list(count_nodes(tree).items()))
        if old != new:
            differences.append((old, new))
    assert differences == []


def test_patterns_print_alike():
    rng = random.Random(5)
    pats = [random_pattern(rng, rng.randint(0, 3), set()) for _ in range(300)]
    pats += [pat for tree in trees() for pat in patterns_in(tree)]
    assert len(pats) > 400
    assert [print_pattern(p) for p in pats] == [match_printer.print_pattern(p) for p in pats]


NON_NODES = [5, None, "x", (Var("a"),), PVar("a"), Tuple(Var("a"), 7),
             App(Var("f"), None), Construct("Pair", (IntLit(1), "b")),
             Prim(PrimOp.AADD, (Var("a"), 2.5)), Lambda("a", Proj1(PVar("b"))),
             Match(Var("a"), ((Var("b"), IntLit(1)),)),
             Match(Var("a"), ((PTuple(PVar("b"), 3), IntLit(1)),))]


@pytest.mark.parametrize("value", NON_NODES, ids=repr)
def test_a_non_node_fails_alike(value):
    expected = outcome(match_printer.print_met, value)
    assert expected[0] is TypeError
    assert outcome(print_met, value) == expected
    if expected[1].startswith("not a meta-language expression"):
        assert outcome(count_nodes, value) == expected
    else:  # the fault is in a pattern, which the census does not visit
        assert outcome(count_nodes, value) == outcome(match_printer.count_nodes, value)


@pytest.mark.parametrize("value", [5, None, Var("a"), PTuple(PVar("a"), Var("b"))], ids=repr)
def test_a_non_pattern_fails_alike(value):
    expected = outcome(match_printer.print_pattern, value)
    assert expected[0] is TypeError
    assert outcome(print_pattern, value) == expected


@pytest.mark.parametrize("wrap, text", [
    (Proj1, "fst {}"),
    (lambda e: App(e, Var("y")), "{} y"),
    (lambda e: Construct("Fst", (e,)), "Fst({})"),
    (lambda e: Prim(PrimOp.ADD, (e, IntLit(1))), "{} + 1"),
])
def test_deep_trees_print(wrap, text):
    # Deeper than the old printer reached (at most 498 levels from the
    # top of the stack), which took two or more host frames per level.
    e, expected = Var("x"), "x"
    for _ in range(700):
        e, expected = wrap(e), text.format(expected)
    assert print_met(e) == expected


if __name__ == "__main__":
    test_trees_print_and_count_alike()
    test_patterns_print_alike()
    for value in NON_NODES:
        test_a_non_node_fails_alike(value)
    print(f"printers agree on {len(trees())} trees and {len(NON_NODES)} non-nodes")
