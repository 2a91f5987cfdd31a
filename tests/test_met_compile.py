"""The closure-compiled evaluator against the tree-walking oracle.

``tests/walker.py`` is the evaluator as a direct tree walk.  Both must
agree exactly: the same value, or the same exception class and message,
and the same number of steps, also when a small budget makes
``FuelExhausted`` fire part-way.  The equivalence harness runs meta-level
analysis and the residual through one evaluator, so it cannot catch an
evaluator bug; this comparison can.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walker
from astgen import NAMES, random_met_expr
from corpus import CORPUS
from retargeter import domains, retarget
from retargeter.analyzer import build_abstract_interpreter
from retargeter.domains import DOMAINS, INTERVAL, SIGN, TOP, Interval, Num, SignSet
from retargeter.errors import FuelExhausted
from retargeter.met.interp import PRIMITIVES, apply_met_function, compiled, eval_met
from retargeter.met.parser import parse_met
from retargeter.met.syntax import (
    EvalBudget,
    IntLit,
    Lambda,
    Let,
    PrimOp,
    Proj1,
    Var,
    VAbs,
    VConstruct,
    VInt,
    VTuple,
)
from retargeter.srclang import SPair, embed_src_expr, embed_src_value
from retargeter.tgtlang import (
    TARGETS,
    encode_tgt_program,
    encode_tgt_value,
    interpreter_fixture,
    random_tgt_program,
)

# Fuel values stay small enough that neither evaluator nests deeper than
# the host stack allows, so running out is always the budget's doing.
FUELS = st.one_of(st.integers(1, 60), st.integers(61, 300))


def outcome(run, *args, fuel):
    """``run(*args, budget)``'s value or exception, and the steps it took."""
    budget = EvalBudget(fuel=fuel)
    try:
        result = ("value", run(*args, budget))
    except Exception as err:
        result = ("error", type(err), str(err))
    return result, budget.steps_used


def assert_same_eval(expr, env, domain, fuel):
    assert (outcome(eval_met, expr, env, domain, fuel=fuel)
            == outcome(walker.eval_met, expr, env, domain, fuel=fuel))


def assert_same_apply(fn, arg, domain, fuel):
    assert (outcome(apply_met_function, fn, arg, domain, fuel=fuel)
            == outcome(walker.apply_met_function, fn, arg, domain, fuel=fuel))


def random_value(rng: random.Random, domain, depth: int = 2):
    kinds = ["int", "abs", "nullary"]
    if depth > 0:
        kinds += ["tuple", "construct", "closure"]
    kind = rng.choice(kinds)
    if kind == "int":
        return VInt(rng.choice([0, 1, rng.randint(-99, 99)]))
    if kind == "abs":
        return VAbs(rng.choice([TOP, Num(domain.eta_int(rng.randint(-9, 9)))]))
    if kind == "nullary":
        return VConstruct("X", ())
    if kind == "tuple":
        return VTuple(random_value(rng, domain, depth - 1), random_value(rng, domain, depth - 1))
    if kind == "construct":
        return VConstruct(rng.choice(["Num", "Fst"]), (random_value(rng, domain, depth - 1),))
    # A closure value crosses from one evaluator to the other as data.
    body = random_met_expr(rng, 2)
    env = {name: random_value(rng, domain, 0) for name in rng.sample(NAMES, 3)}
    return walker.eval_met(Lambda(rng.choice(NAMES), body), env, domain)


def random_abs_input(rng: random.Random, domain):
    if domain is INTERVAL:
        lo = rng.randint(-1000, 1000)
        return Num(rng.choice([Interval(lo, lo + rng.randint(0, 50)), Interval(None, lo),
                               Interval(lo, None)]))
    signs = [s for s in domains.Sign if rng.random() < 0.5] or [domains.Sign.ZERO]
    return Num(SignSet(frozenset(signs)))


@pytest.fixture(scope="module")
def residuals():
    return {(t, d): retarget(t, DOMAINS[d]).residual for t in TARGETS for d in DOMAINS}


class TestAgainstTheWalker:
    @given(st.integers(0, 2**32), st.integers(0, 6), st.sampled_from([SIGN, INTERVAL]), FUELS)
    @settings(max_examples=400, deadline=None)
    def test_random_expressions(self, seed, depth, domain, fuel):
        rng = random.Random(seed)
        expr = random_met_expr(rng, depth)
        env = {name: random_value(rng, domain) for name in NAMES if rng.random() < 0.7}
        assert_same_eval(expr, env, domain, fuel)

    @given(st.integers(0, 2**32), st.sampled_from(TARGETS), st.sampled_from(sorted(DOMAINS)),
           st.booleans(), st.one_of(st.just(10**6), FUELS))
    @settings(max_examples=200, deadline=None)
    def test_residuals(self, residuals, seed, target, domain_name, concrete, fuel):
        rng = random.Random(seed)
        domain = DOMAINS[domain_name]
        program = encode_tgt_program(random_tgt_program(rng, target))
        if concrete:
            arg = embed_src_value(SPair(program, encode_tgt_value(rng.randint(-1000, 1000))))
        else:
            arg = VTuple(embed_src_value(program), VAbs(random_abs_input(rng, domain)))
        assert_same_apply(residuals[target, domain_name], arg, domain, fuel)

    @given(st.integers(0, 2**32), st.sampled_from(CORPUS), st.one_of(st.just(10**6), FUELS))
    @settings(max_examples=150, deadline=None)
    def test_corpus_programs(self, seed, entry, fuel):
        # Includes the abstract interpreter on both definitional
        # interpreters and on random source programs.
        i1, i2 = entry.gen(random.Random(seed))
        assert_same_apply(entry.expr, VTuple(i1, i2), entry.domain, fuel)

    def test_every_fuel_on_one_analysis(self, residuals):
        # Exhaustion fires on the same step for every budget up to the
        # run's full length, on the residual and on meta-level analysis.
        program = encode_tgt_program(random_tgt_program(random.Random(3), "seq2"))
        arg = VTuple(embed_src_value(program), VAbs(Num(Interval(-3, 8))))
        meta_arg = VTuple(embed_src_expr(interpreter_fixture("seq2")), arg)
        for fn, a in ((residuals["seq2", "interval"], arg),
                      (build_abstract_interpreter(), meta_arg)):
            budget = EvalBudget()
            walker.apply_met_function(fn, a, INTERVAL, budget)
            for fuel in range(1, budget.steps_used + 2):
                assert_same_apply(fn, a, INTERVAL, fuel)


class TestDepth:
    """Nesting deeper than the host stack is a budget failure, not a crash,
    whether it is met while compiling or while running."""

    @staticmethod
    def nested(depth: int):
        expr = Var("x")
        for _ in range(depth):
            expr = Proj1(expr)
        return expr

    def test_compiling_too_deep_an_expression(self):
        deep = self.nested(5000)
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            eval_met(deep, {"x": VInt(1)}, INTERVAL)
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            apply_met_function(Lambda("x", deep), VInt(1), INTERVAL)

    def test_compiling_nests_no_deeper_than_evaluating(self):
        # Past half the host's limit, one frame per tree level still fits,
        # as it does for the tree walk.
        depth = sys.getrecursionlimit() * 3 // 5
        lets, projections = Var("x"), Var("x")
        for _ in range(depth):
            lets, projections = Let("x", IntLit(1), lets), Proj1(projections)
        for expr, env in ((lets, {}), (projections, {"x": VAbs(TOP)})):
            assert eval_met(expr, env, INTERVAL) == walker.eval_met(expr, env, INTERVAL)

    def test_running_too_deep_a_recursion(self):
        source = "let rec f n = match n with | 0 -> 0 | m -> 1 + f (m + -1) in f"
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            eval_met(parse_met(f"{source} 100000"), {}, INTERVAL, EvalBudget(fuel=10**9))
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            apply_met_function(parse_met(f"fun k -> {source} k"), VInt(100000), INTERVAL,
                               EvalBudget(fuel=10**9))

    def test_a_shallow_tree_still_runs_after_a_deep_one_failed(self):
        deep = self.nested(5000)
        with pytest.raises(FuelExhausted):
            eval_met(deep, {"x": VInt(1)}, INTERVAL)
        tuple_ = VTuple(VInt(7), VInt(8))
        assert eval_met(self.nested(1), {"x": tuple_}, INTERVAL) == VInt(7)


class TestCompiledForm:
    def test_cached_per_node_and_domain(self):
        expr = parse_met("fun v -> aadd(v, eta(1))")
        assert compiled(expr, INTERVAL) is compiled(expr, INTERVAL)
        assert compiled(expr, SIGN) is not compiled(expr, INTERVAL)
        # An equal but distinct tree has its own code: the cache is by identity.
        assert compiled(parse_met("fun v -> aadd(v, eta(1))"), INTERVAL) \
            is not compiled(expr, INTERVAL)

    def test_closure_bodies_compile_once(self):
        fn = parse_met("fun v -> aadd(v, eta(1))")
        apply_met_function(fn, VAbs(TOP), INTERVAL)
        code = compiled(fn.body, INTERVAL)
        apply_met_function(fn, VAbs(TOP), INTERVAL)
        assert compiled(fn.body, INTERVAL) is code

    def test_domain_functions_are_looked_up_when_called(self, monkeypatch):
        # A tracer rebinds module attributes after code is compiled.
        fn = parse_met("fun v -> aadd(v, eta(1))")
        apply_met_function(fn, VAbs(TOP), INTERVAL)
        calls = []
        original = domains.abs_add

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(domains, "abs_add", counting)
        apply_met_function(fn, VAbs(TOP), INTERVAL)
        assert len(calls) == 1

    def test_one_primitive_table(self):
        assert set(PRIMITIVES) == set(PrimOp)
        assert PRIMITIVES[PrimOp.ADD](VInt(2), VInt(3), None) == VInt(5)
