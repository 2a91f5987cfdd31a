"""Evaluator semantics: values, errors, budgets, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retargeter.domains import INTERVAL, SIGN, AbsValue, Bot, Interval, Num, contains
from retargeter.errors import FuelExhausted, StuckError
from retargeter.met.interp import apply_met_function, eval_met
from retargeter.met import syntax
from retargeter.met.parser import parse_met
from retargeter.met.syntax import (
    Construct,
    EvalBudget,
    IntLit,
    Let,
    Match,
    MetValue,
    PConstruct,
    PVar,
    Prim,
    PrimOp,
    VInt,
    Var,
)
from retargeter.srclang import SInt


def run(text: str, env=None, domain=INTERVAL, budget=None):
    return eval_met(parse_met(text), env or {}, domain, budget)


class TestBasics:
    def test_addition(self):
        assert run("40 + 2") == VInt(42)

    def test_eta_singleton(self):
        result = run("eta(0)")
        assert result == Num(Interval(0, 0))
        assert contains(result, SInt(0))

    def test_match_selects_first_applicable_branch(self):
        expr = Match(
            Construct("Add", (IntLit(7),)),
            (
                (PConstruct("Add", (PVar("n"),)), Var("n")),
                (PConstruct("Mul", (PVar("n"),)), IntLit(0)),
            ),
        )
        assert eval_met(expr, {}, INTERVAL) == VInt(7)

    def test_let_and_lambda(self):
        assert run("let f = fun y -> y * y in f 6") == VInt(36)

    def test_letrec(self):
        assert run(
            "let rec len l = match l with | X -> 0 | Pair(h, t) -> 1 + len t "
            "in len Pair(5, Pair(6, X))"
        ) == VInt(2)

    def test_projection_of_abstract_pair(self):
        # Projections pass through abstract values componentwise.
        result = run("fst eta((1, 2))")
        assert result == Num(Interval(1, 1))

    def test_eta_identity_on_abstract(self):
        assert run("eta(eta(5))") == run("eta(5)")

    def test_abstract_ops_accept_mixed_tuples(self):
        # A concrete tuple of abstract values coerces to an abstract pair.
        result = run("fne0((eta(1), eta(2)), eta(7))")
        assert result == Bot()


class TestErrors:
    def test_projection_of_int_is_stuck(self):
        with pytest.raises(StuckError):
            run("fst 3")

    def test_no_matching_branch(self):
        with pytest.raises(StuckError):
            run("match 3 with | 0 -> 1")

    def test_apply_non_function(self):
        with pytest.raises(StuckError):
            run("3 4")

    def test_arith_on_tuple(self):
        with pytest.raises(StuckError):
            run("(1, 2) + 3")

    def test_unbound_variable(self):
        with pytest.raises(StuckError):
            run("nope")

    def test_eta_of_constructor_is_stuck(self):
        with pytest.raises(StuckError):
            run("eta(X)")

    def test_fuel_exhaustion(self):
        with pytest.raises(FuelExhausted):
            run("let rec f y = f y in f 1", budget=EvalBudget(fuel=500))

    def test_deep_recursion_reports_fuel_not_a_crash(self):
        text = "let rec f n = match n with | 0 -> 0 | m -> 1 + f (m + -1) in f 100000"
        with pytest.raises(FuelExhausted):
            run(text, budget=EvalBudget(fuel=10**9))

    def test_steps_within_fuel_on_success(self):
        budget = EvalBudget(fuel=100)
        run("1 + 2 * 3", budget=budget)
        assert 0 < budget.steps_used <= budget.fuel


class TestDeterminism:
    def test_same_result_and_same_steps(self):
        text = "let rec len l = match l with | X -> 0 | Pair(h, t) -> 1 + len t " \
               "in len Pair(1, Pair(2, Pair(3, X)))"
        b1, b2 = EvalBudget(), EvalBudget()
        assert run(text, budget=b1) == run(text, budget=b2)
        assert b1.steps_used == b2.steps_used


# Small strategies for semantic properties: closed integer expressions.
def int_exprs(depth: int = 3):
    base = st.builds(IntLit, st.integers(-50, 50))
    if depth == 0:
        return base
    sub = int_exprs(depth - 1)
    return st.one_of(
        base,
        st.builds(lambda a, b: Prim(PrimOp.ADD, (a, b)), sub, sub),
        st.builds(lambda a, b: Prim(PrimOp.MUL, (a, b)), sub, sub),
        st.builds(lambda a, b: Prim(PrimOp.EQ, (a, b)), sub, sub),
    )


class TestProperties:
    @given(int_exprs(), int_exprs())
    @settings(max_examples=200)
    def test_let_equals_substitution(self, bound, body_seed):
        # let x = e1 in e2  ==  e2 evaluated with x pre-bound to e1's value
        body = Prim(PrimOp.ADD, (Var("x"), body_seed))
        let_result = eval_met(Let("x", bound, body), {}, INTERVAL)
        direct = eval_met(body, {"x": eval_met(bound, {}, INTERVAL)}, INTERVAL)
        assert let_result == direct

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=300)
    def test_eq_is_total_on_integers(self, a, b):
        result = eval_met(Prim(PrimOp.EQ, (IntLit(a), IntLit(b))), {}, SIGN)
        assert result in (VInt(0), VInt(1))

    @given(int_exprs())
    @settings(max_examples=100)
    def test_eval_is_pure(self, expr):
        assert eval_met(expr, {}, INTERVAL) == eval_met(expr, {}, INTERVAL)


class TestRepresentation:
    """An abstract value is a meta value itself: no box carries it."""

    def test_an_abstract_value_is_a_meta_value(self):
        assert issubclass(AbsValue, MetValue)

    def test_the_box_is_the_identity(self):
        x = Interval(0, 1)
        assert syntax.VAbs(x) is x

    def test_eta_gives_the_carrier_value_itself(self):
        assert type(eval_met(parse_met("eta(0)"), {}, INTERVAL)) is Interval


class TestApplyFunction:
    def test_apply_with_abstract_argument(self):
        fn = parse_met("fun v -> aadd(v, eta(1))")
        out = apply_met_function(fn, Num(Interval(0, 10)), INTERVAL)
        assert out == Num(Interval(1, 11))

    def test_apply_non_function_fails(self):
        with pytest.raises(StuckError):
            apply_met_function(IntLit(3), VInt(1), INTERVAL)

    def test_closure_environments_do_not_leak(self):
        fn = parse_met("let a = 10 in fun v -> v + a")
        assert apply_met_function(fn, VInt(5), INTERVAL) == VInt(15)
