"""Partial evaluator: specialization rules, residual quality, correctness."""

from __future__ import annotations

import dataclasses
import random

import pytest

from retargeter.domains import INTERVAL, TOP
from retargeter.errors import FuelExhausted, ReifyError, StuckError
from retargeter.met.interp import apply_met_function, eval_met
from retargeter.met.parser import PROJECTION_LIMIT, parse_met
from retargeter.met.printer import count_nodes, print_met
from retargeter.met.syntax import (
    EvalBudget,
    IntLit,
    Lambda,
    MetExpr,
    MetValue,
    Prim,
    PrimOp,
    Tuple,
    VClosure,
    VConstruct,
    VInt,
    VTuple,
    Var,
)
from retargeter import peval
from retargeter.analyzer import build_abstract_interpreter
from retargeter.peval import reify, residual_stats, specialize
from retargeter.retargeting import retarget
from retargeter.srclang import embed_src_expr
from retargeter.tgtlang import interpreter_fixture

from corpus import CORPUS


def eq3_holds(expr, i1, i2, domain=INTERVAL):
    """Specialize-then-run equals run-unspecialized (both defined here)."""
    residual = specialize(expr, i1)
    specialized = apply_met_function(residual, i2, domain, EvalBudget())
    direct = apply_met_function(expr, VTuple(i1, i2), domain, EvalBudget())
    return specialized == direct, specialized, direct, residual


class TestReify:
    def test_int(self):
        assert reify(VInt(3)) == IntLit(3)

    def test_tuple(self):
        assert reify(VTuple(VInt(1), VInt(2))) == Tuple(IntLit(1), IntLit(2))

    def test_constructor_round_trip(self):
        value = VConstruct("Add", (VInt(7), VConstruct("X", ())))
        assert eval_met(reify(value), {}, INTERVAL) == value

    def test_closure_rejected(self):
        with pytest.raises(ReifyError):
            reify(VClosure("x", Var("x"), {}))

    def test_abstract_value_rejected(self):
        with pytest.raises(ReifyError):
            reify(TOP)


class TestSpecializeExamples:
    def test_static_first_component(self):
        expr = parse_met("fun x -> fst x + snd x")
        residual = specialize(expr, VInt(3))
        assert residual == Lambda("i", Prim(PrimOp.ADD, (IntLit(3), Var("i"))))

    def test_static_branch_selection_removes_match(self):
        expr = parse_met("fun x -> match fst x with | Num(n) -> n | X -> 0")
        residual = specialize(expr, VConstruct("Num", (VInt(7),)))
        assert count_nodes(residual).get("Match", 0) == 0
        assert apply_met_function(residual, VInt(123), INTERVAL) == VInt(7)

    def test_concrete_arith_folds_by_default(self):
        expr = parse_met("fun x -> (2 + 3) * snd x")
        residual = specialize(expr, VInt(0))
        assert count_nodes(residual).get("ADD", 0) == 0
        assert IntLit(5) in _literals(residual)

    def test_abstract_prims_are_residualized_even_on_static_args(self):
        expr = parse_met("fun x -> aadd(eta(1), eta(snd x))")
        residual = specialize(expr, VInt(0))
        counts = count_nodes(residual)
        assert counts.get("AADD") == 1 and counts.get("ETA") == 2

    def test_projecting_an_abstract_static_input_is_a_reify_error(self):
        # An abstract value known at specialization time cannot be
        # projected (abstract primitives never run here) nor reified.
        # At runtime the same projection yields top, so StuckError would
        # misattribute the failure.
        expr = parse_met("fun x -> fst (fst x)")
        with pytest.raises(ReifyError):
            specialize(expr, TOP)

    def test_dynamic_match_residualizes_with_fresh_names(self):
        expr = parse_met("fun x -> match snd x with | 0 -> 1 | n -> n * fst x")
        residual = specialize(expr, VInt(3))
        assert count_nodes(residual).get("Match") == 1
        ok, spec, direct, _ = eq3_holds(expr, VInt(3), VInt(9))
        assert ok and spec == VInt(27)

    def test_a_tuple_of_known_parts_is_known(self):
        # So a constructor over it is known, the match on that is decided,
        # and arithmetic on the tuple's parts folds.
        expr = parse_met("fun x -> match Num((fst x, 2)) with Num(q) -> fst q + snd q")
        assert specialize(expr, VInt(40)) == Lambda("i", IntLit(42))

    def test_residual_let_is_kept_for_dynamic_bindings(self):
        expr = parse_met("fun x -> let d = snd x + 1 in d * d")
        residual = specialize(expr, VInt(0))
        assert count_nodes(residual).get("Let") == 1

    def test_unfolds_recursive_calls_on_static_data(self):
        expr = CORPUS[5].expr  # list_length
        assert CORPUS[5].name == "list_length"
        i1 = VConstruct("Pair", (VInt(9), VConstruct("Pair", (VInt(8), VConstruct("X", ())))))
        residual = specialize(expr, i1)
        counts = count_nodes(residual)
        assert counts.get("Match", 0) == 0 and counts.get("LetRecFun", 0) == 0
        assert apply_met_function(residual, VInt(5), INTERVAL) == VInt(7)

    def test_stuck_static_computation_mirrors_eval(self):
        expr = parse_met("fun x -> fst (fst x)")
        with pytest.raises(StuckError):
            specialize(expr, VInt(3))


def _literals(expr):
    found = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, IntLit):
            found.append(node)
        for attr in ("fst", "snd", "arg", "scrutinee", "bound", "body", "fun_body", "fun"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, str):
                stack.append(child)
        stack.extend(getattr(node, "args", ()))
        for _, body in getattr(node, "branches", ()):
            stack.append(body)
    return found


class TestSpecializeProperties:
    @pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
    def test_specialize_preserves_semantics(self, entry):
        rng = random.Random(hash(entry.name) % 2**32)
        for _ in range(25):
            i1, i2 = entry.gen(rng)
            ok, spec, direct, residual = eq3_holds(entry.expr, i1, i2, entry.domain)
            assert ok, (entry.name, i1, i2, spec, direct, print_met(residual))

    def test_determinism(self):
        expr = CORPUS[10].expr
        i1 = embed_src_expr(interpreter_fixture("single"))
        assert specialize(expr, i1) == specialize(expr, i1)

    def test_unfold_fuel_exhaustion(self, monkeypatch):
        monkeypatch.setattr(peval, "UNFOLD_LIMIT", 100)
        expr = parse_met("fun x -> let rec spin y = spin y in spin (snd x)")
        with pytest.raises(FuelExhausted, match="100 call unfoldings"):
            specialize(expr, VInt(0))

    def test_exponential_static_unfolding_hits_the_unfold_limit(self, monkeypatch):
        # Static data drives the recursion, so it terminates, but only
        # after 2^31 - 1 unfoldings at a host depth of 31.
        monkeypatch.setattr(peval, "UNFOLD_LIMIT", 1000)
        expr = parse_met(
            "fun x -> let rec f n = match n with | 0 -> snd x "
            "| m -> f (m + -1) + f (m + -1) in f (fst x)"
        )
        with pytest.raises(FuelExhausted, match="exceeded 1000 call unfoldings"):
            specialize(expr, VInt(30))

    def test_recursion_on_dynamic_data_exhausts_rather_than_crashing(self):
        # Monovariant unfolding cannot close a loop over unknown data;
        # the documented outcome is FuelExhausted however deep it gets.
        expr = parse_met(
            "fun x -> let rec f n = match n with | 0 -> 0 | m -> 1 + f (m + -1) "
            "in f (snd x)"
        )
        with pytest.raises(FuelExhausted):
            specialize(expr, VInt(0))

    def test_recursion_on_static_data_unfolds_completely(self):
        expr = parse_met(
            "fun x -> let rec f n = match n with | 0 -> snd x | m -> 1 + f (m + -1) "
            "in f (fst x)"
        )
        residual = specialize(expr, VInt(5))
        assert count_nodes(residual).get("LetRecFun", 0) == 0
        assert apply_met_function(residual, VInt(100), INTERVAL) == VInt(105)

    def test_dynamic_function_applications_residualize(self):
        expr = parse_met("fun x -> (snd x) (fst x)")
        residual = specialize(expr, VInt(5))
        assert count_nodes(residual)["App"] == 1
        identity = parse_met("fun y -> y")
        fn = eval_met(identity, {}, INTERVAL)
        assert apply_met_function(residual, fn, INTERVAL) == VInt(5)


def nested_sum(depth):
    """The embedded source program (+ 1 (+ 1 ... x)), nested ``depth`` deep,
    built without recursion."""
    e = VConstruct("X", ())
    for _ in range(depth):
        e = VConstruct("Add", (VConstruct("Num", (VInt(1),)), e))
    return e


def _subterms(root):
    """Every expression, pattern and value reachable from ``root``."""
    seen, stack = [], [root]
    while stack:
        node = stack.pop()
        seen.append(node)
        for child in (getattr(node, f.name) for f in dataclasses.fields(node)):
            if isinstance(child, tuple):
                for item in child:
                    stack.extend(item if isinstance(item, tuple) else (item,))
            elif isinstance(child, dict):
                stack.extend(v for v in child.values() if isinstance(v, (MetExpr, MetValue)))
            elif isinstance(child, (MetExpr, MetValue)):
                stack.append(child)
    return seen


class TestDepthAndCache:
    def test_a_deep_program_specializes(self):
        # The tree walk this specializer replaced reached 163 levels.
        residual = specialize(build_abstract_interpreter(), nested_sum(150))
        assert count_nodes(residual)["AADD"] == 150

    def test_a_projection_chain_at_the_parser_limit_specializes(self):
        # Texts, not trees, are compared: a record's ``==`` recurses once
        # per level.
        depth = PROJECTION_LIMIT - 1
        expr = parse_met("fun p -> aadd(" + "fst " * depth + "(snd p), eta(1))")
        residual = specialize(expr, VInt(1))
        assert print_met(residual) == "fun i -> aadd(" + "fst " * depth + "i, eta(1))"

    def test_host_depth_is_reported_as_fuel(self):
        with pytest.raises(FuelExhausted, match="host recursion depth"):
            specialize(build_abstract_interpreter(), nested_sum(5000))

    def test_code_is_cached_on_the_interpreter_not_on_the_static_input(self):
        retarget("seq2", INTERVAL)
        static_input = embed_src_expr(interpreter_fixture("seq2"))
        specialize(build_abstract_interpreter(), static_input)
        assert not [n for n in _subterms(static_input) if hasattr(n, "_pe_code")]
        assert [n for n in _subterms(build_abstract_interpreter()) if hasattr(n, "_pe_code")]

    def test_a_closure_in_the_static_input_is_not_cached(self):
        body = parse_met("y + 1")
        residual = specialize(parse_met("fun x -> (fst x) (snd x)"), VClosure("y", body, {}))
        assert apply_met_function(residual, VInt(4), INTERVAL) == VInt(5)
        assert not hasattr(body, "_pe_code")


class TestResidualStats:
    def test_flags(self):
        residual = specialize(
            parse_met("fun x -> aadd(eta(fst x), eta(snd x))"), VInt(4)
        )
        stats = residual_stats(residual)
        assert not stats.has_match
        assert stats.abstract_ops.get("AADD") == 1
        assert stats.counts == count_nodes(residual)

    def test_report_formats(self):
        stats = residual_stats(parse_met("match x with | 0 -> eta(1) | _ -> x"))
        assert stats.has_match
