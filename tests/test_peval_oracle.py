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
    App,
    Lambda,
    Let,
    LetRecFun,
    Match,
    PConstruct,
    Proj1,
    Proj2,
    PTuple,
    PVar,
    Tuple,
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
from astgen import NAMES, random_met_expr, random_pattern
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
    return TOP


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


# The specializer runs three shapes as one closure each: a call of a
# variable on a pair of leaves, a match on a leaf, and an abstract
# primitive of arity 1 or 2.  A fused form runs only when every inline
# read succeeds; these cases reach each read and each way it can fail.
# ``z`` holds a split tuple inside a split tuple, ``fst x`` the static
# input and ``snd x`` the unknown one.
PAIR_LEAVES = ["x", "fst x", "snd x", "snd (fst (fst z))", "fst (fst (snd z))",
               "snd (fst (snd x))", "u", "fst u"]
PAIR_INPUTS = [VTuple(VTuple(VInt(1), VInt(2)), VInt(3)), VTuple(TOP, VInt(0)),
               TOP, VInt(4), VConstruct("Num", (VInt(5),))]


@pytest.mark.parametrize("a", PAIR_LEAVES)
@pytest.mark.parametrize("b", PAIR_LEAVES)
def test_pair_call_leaves(a, b):
    expr = parse_met(f"fun x -> let z = (x, 1) in "
                     f"let rec f p = (snd p, (fst p, z)) in f ({a}, {b})")
    for static_input in PAIR_INPUTS:
        assert_same(expr, static_input)


@pytest.mark.parametrize("fun, static_input, expected", [
    ("u", VInt(1), ("StuckError", "unbound variable 'u'")),
    ("fst x", VClosure("q", parse_met("(snd q, fst q)"), {}), ("residual", "fun i -> (i, 2)")),
    ("fst x", VClosure("q", parse_met("g (fst q, snd q)"), {}, "g"),
     ("FuelExhausted", "specialization exceeded 40 call unfoldings")),
    ("snd x", VInt(1), ("residual", "fun i -> let g = i in g (2, i)")),
    ("fst x", VInt(1), ("StuckError", "application of a non-function")),
    ("fst x", VTuple(VInt(1), VInt(2)), ("StuckError", "application of a non-function")),
    ("fun q -> (snd q, fst q)", VInt(1), ("residual", "fun i -> (i, 2)")),
    ("fun q -> q", TOP, ("residual", "fun i -> (2, i)")),
])
def test_pair_call_functions(monkeypatch, fun, static_input, expected):
    set_unfold_limit(monkeypatch, 40)
    expr = parse_met(f"fun x -> let g = {fun} in g (2, snd x)")
    assert assert_same(expr, static_input) == expected


def test_pair_call_at_the_unfold_limit(monkeypatch):
    # f unfolds once per constructor on the static spine, and the
    # specialization itself once: exactly the limit succeeds, one fewer
    # fails at a fused call.
    expr = parse_met("fun x -> let rec f p = match fst p with "
                     "| Add(a, b) -> f (b, snd p) | n -> (snd p, n) "
                     "in f (fst x, snd x)")
    spine = VConstruct("Num", (VInt(0),))
    for k in range(4):
        spine = VConstruct("Add", (VInt(k), spine))
    for limit, kind in [(6, "residual"), (5, "FuelExhausted"), (1, "FuelExhausted")]:
        set_unfold_limit(monkeypatch, limit)
        assert assert_same(expr, spine)[0] == kind


def test_pair_call_on_two_known_leaves_passes_a_known_pair():
    # A constructor over a known pair is known, so the match is decided.
    expr = parse_met("fun x -> let rec f p = match Num(p) with | Num(q) -> snd q | m -> m "
                     "in f (snd (fst x), fst (fst x))")
    assert assert_same(expr, VTuple(VInt(3), VInt(4))) == ("residual", "fun i -> 3")


@pytest.mark.parametrize("text, expected", [
    # Specializing the second argument draws ``y`` before residualizing
    # the first draws ``y1``.
    ("aadd(fun y -> (y, snd x), let y = snd x in (y, fst x))",
     "fun i -> aadd(fun y1 -> (y1, i), let y = i in (y, 7))"),
    ("amul((snd x, fun y -> y), (fst x, fun y -> (y, snd x)))",
     "fun i -> amul((i, fun y -> y), (7, fun y1 -> (y1, i)))"),
    ("ajoin(let rec g y = g (y, snd x) in g, let g = snd x in g)",
     "fun i -> ajoin(let rec g1 y = g1 (y, i) in g1, let g = i in g)"),
    ("fne0(snd x, fst x)", "fun i -> fne0(i, 7)"),
    ("eta(fun y -> (y, snd x))", "fun i -> eta(fun y -> (y, i))"),
    ("eta((snd x, let rec g y = g y in g))", "fun i -> eta((i, let rec g y = g y in g))"),
    ("eta(snd x)", "fun i -> eta(i)"),
    ("eta(fst x)", "fun i -> eta(7)"),
])
def test_abstract_primitives(text, expected):
    assert assert_same(parse_met(f"fun x -> {text}"), VInt(7)) == ("residual", expected)


def test_abstract_primitive_arguments_without_literals():
    expr = parse_met("fun x -> aeq(fst x, let y = snd x in y)")
    assert assert_same(expr, TOP) == ("ReifyError", "an abstract value has no literal syntax")
    assert assert_same(parse_met("fun x -> eta(fst x)"), VClosure("q", Var("q"), {}))[0] == (
        "ReifyError")


LEAF_MATCH = ("fun x -> let z = (x, 1) in match {scrutinee} with "
              "| Add(a, _) -> (a, snd x) | Add(c, d) -> (d, c) | Num(n) -> n | X -> snd x "
              "| m -> (m, 0)")


@pytest.mark.parametrize("scrutinee", ["fst x", "fst (fst z)", "fst (snd (fst (fst z)))"])
@pytest.mark.parametrize("value, expected", [
    (ADD12, "fun i -> (1, i)"),                                  # the first candidate binds
    (NUM5, "fun i -> 5"),
    (VConstruct("X", ()), "fun i -> i"),                         # nothing to bind
    (VConstruct("Add", (VInt(1),)), "fun i -> (Add(1), 0)"),     # arity mismatch
    (VConstruct("Num", (VInt(1), VInt(2))), "fun i -> (Num(1, 2), 0)"),
    (VConstruct("Mul", (VInt(1), VInt(2))), "fun i -> (Mul(1, 2), 0)"),
    (VInt(3), "fun i -> (3, 0)"),
])
def test_leaf_match(scrutinee, value, expected):
    if scrutinee in ("fst x", "fst (fst z)"):
        static_input = value
    else:
        # Read with fst and snd swapped, the path would still find a value.
        static_input = VTuple(VTuple(VInt(0), VInt(0)), VTuple(value, VTuple(VInt(0), VInt(0))))
    expr = parse_met(LEAF_MATCH.format(scrutinee=scrutinee))
    assert assert_same(expr, static_input) == ("residual", expected)


@pytest.mark.parametrize("first, expected", [
    ("v -> (v, 0)", "fun i -> (Add(1, 2), 0)"),
    ("_ -> snd x", "fun i -> i"),
    ("3 -> snd x", "fun i -> (2, 1)"),
    ("(p, q) -> p", "fun i -> (2, 1)"),
    ("Add(Num(n), b) -> n", "fun i -> (2, 1)"),
    ("Add(1, b) -> b", "fun i -> 2"),
])
def test_leaf_match_first_candidate_not_flat(first, expected):
    expr = parse_met(f"fun x -> match fst x with | {first} | Add(a, b) -> (b, a) | m -> m")
    assert assert_same(expr, ADD12) == ("residual", expected)


def test_leaf_match_binds_the_first_of_two_flat_candidates():
    expr = parse_met("fun x -> match fst x with | Add(a, _) -> a | Add(c, d) -> d")
    assert assert_same(expr, ADD12) == ("residual", "fun i -> 1")


def test_leaf_match_later_binding_wins():
    # The parser rejects a pattern that binds a name twice: built directly.
    expr = Lambda("x", Let("z", Tuple(Var("x"), Var("x")), Match(Proj1(Proj1(Var("z"))), (
        (PConstruct("Add", (PVar("a"), PVar("a"))), Var("a")),
    ))))
    assert assert_same(expr, ADD12) == ("residual", "fun i -> 2")


@pytest.mark.parametrize("scrutinee", ["snd x", "fst (snd x)", "snd (snd (fst z))", "u",
                                       "fst u", "fst (fst x)"])
def test_leaf_match_that_fails_to_read(scrutinee):
    expr = parse_met(LEAF_MATCH.format(scrutinee=scrutinee))
    for static_input in [ADD12, VTuple(ADD12, VInt(0)), TOP, VInt(1)]:
        assert_same(expr, static_input)


def random_leaf(rng: random.Random, names: list[str]):
    leaf = Var(rng.choice(names))
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        leaf = rng.choice([Proj1, Proj2])(leaf)
    return leaf


def random_pair_call_program(rng: random.Random):
    """A function over a pair that defines a recursive ``f`` and calls a
    variable, mostly ``f``, on a pair of leaves, inside ``f`` and out."""
    names = ["x", "p", "f", "k", "d"] + NAMES[:2]

    def call():
        return App(Var(rng.choice(["f", "f", "f", "k", "d", "p", "g"])),
                   Tuple(random_leaf(rng, names), random_leaf(rng, names)))
    body = Match(random_leaf(rng, ["p", "x"]), (
        (random_pattern(rng, 2, set()), call()),
        (random_pattern(rng, 1, set()), random_met_expr(rng, rng.randint(0, 2))),
        (PVar("q"), Tuple(Var("q"), random_leaf(rng, names))),
    ))
    return Lambda("x", Let("k", Proj1(Var("x")), Let("d", Proj2(Var("x")),
                                                     LetRecFun("f", "p", body, call()))))


def test_random_pair_calls(monkeypatch):
    set_unfold_limit(monkeypatch, 40)
    seen = {}
    for seed in range(400):
        rng = random.Random(f"pair call {seed}")
        kind, text = assert_same(random_pair_call_program(rng), random_static(rng, 3))
        seen[kind if kind == "residual" else (kind, text.split(" '")[0])] = True
    for expected in [
        "residual",
        ("StuckError", "unbound variable"),
        ("StuckError", "application of a non-function"),
        ("StuckError", "projection of a non-tuple"),
        ("FuelExhausted", "specialization exceeded 40 call unfoldings"),
        ("ReifyError", "projection of an abstract value at specialization time"),
    ]:
        assert expected in seen, (expected, sorted(map(str, seen)))
