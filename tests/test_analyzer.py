"""The abstract interpreter program and the meta-level analysis entry points."""

from __future__ import annotations

import random

import pytest

from retargeter.analyzer import (
    abstract_target_input,
    analyze_meta,
    analyze_meta_abstract,
    build_abstract_interpreter,
)
from retargeter.domains import (
    APair,
    INTERVAL,
    Interval,
    Num,
    SIGN,
    Sign,
    SignSet,
    contains,
    leq,
)
from retargeter.errors import FuelExhausted, StuckError
from retargeter.met.printer import count_nodes
from retargeter.met.syntax import EvalBudget, Match
from retargeter.srclang import (
    Add,
    Mul,
    Num as SrcNum,
    SInt,
    SPair,
    X,
    eval_src,
    random_src_expr,
    random_src_value,
    shape_of,
)
from retargeter.tgtlang import (
    AddN,
    MulN,
    Single,
    encode_tgt_program,
    encode_tgt_value,
    eval_tgt,
    interpreter_fixture,
    random_tgt_program,
)


def _find_match(expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Match):
            return node
        for attr in ("fst", "snd", "arg", "scrutinee", "bound", "body", "fun_body", "fun"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, str):
                stack.append(child)
        for child in getattr(node, "args", ()):
            stack.append(child)
        for _, body in getattr(node, "branches", ()):
            stack.append(body)
    return None


class TestInterpreterProgram:
    def test_single_match_with_nine_branches(self):
        program = build_abstract_interpreter()
        assert count_nodes(program).get("Match") == 1
        match = _find_match(program)
        assert len(match.branches) == 9

    def test_deterministic(self):
        assert build_abstract_interpreter() == build_abstract_interpreter()

    def test_literal_arm(self):
        # Analyzing the program "5" abstracts the literal, whatever the input.
        assert analyze_meta(INTERVAL, SrcNum(5), SInt(99)) == Num(Interval(5, 5))

    def test_input_arm(self):
        assert analyze_meta(INTERVAL, X(), SInt(7)) == Num(Interval(7, 7))


class TestAnalyzeMeta:
    def test_addition_is_exact_on_singletons(self):
        assert analyze_meta(INTERVAL, Add(SrcNum(1), X()), SInt(2)) == Num(Interval(3, 3))

    def test_sign_of_product(self):
        got = analyze_meta(SIGN, Mul(SrcNum(-3), X()), SInt(5))
        assert got == Num(SignSet.of(Sign.NEG))
        assert contains(got, SInt(-15))

    def test_interpreter_fixture_instance(self):
        fixture = interpreter_fixture("single")
        src_input = SPair(SPair(SInt(0), SInt(42)), SInt(5))
        assert analyze_meta(INTERVAL, fixture, src_input) == Num(Interval(47, 47))

    def test_fuel_is_enforced(self):
        with pytest.raises(FuelExhausted):
            analyze_meta(INTERVAL, X(), SInt(0), EvalBudget(fuel=3))

    def test_soundness_fuzz_both_domains(self):
        # For random well-shaped programs, the analysis contains the
        # concrete result whenever concrete evaluation succeeds.
        rng = random.Random(23)
        checked = 0
        for _ in range(1000):
            value = random_src_value(rng, 2, 100)
            program = random_src_expr(rng, shape_of(value), depth=4,
                                      want=rng.choice(["int", ("pair", "int", "int")]))
            try:
                concrete = eval_src(program, value)
            except StuckError:
                continue
            for domain in (INTERVAL, SIGN):
                assert contains(analyze_meta(domain, program, value), concrete), (
                    program, value, concrete)
            checked += 1
        assert checked > 900

    @pytest.mark.parametrize("target", ["single", "seq2"])
    @pytest.mark.parametrize("domain", [INTERVAL, SIGN], ids=["interval", "sign"])
    def test_meta_level_target_analysis_is_sound(self, domain, target):
        fixture = interpreter_fixture(target)
        rng = random.Random(29)
        for _ in range(300):
            program = random_tgt_program(rng, target)
            value = rng.randint(-1000, 1000)
            src_input = SPair(encode_tgt_program(program), encode_tgt_value(value))
            result = analyze_meta(domain, fixture, src_input)
            assert contains(result, encode_tgt_value(eval_tgt(program, value)))


class TestAnalyzeMetaAbstract:
    def test_identity_program(self):
        got = analyze_meta_abstract(INTERVAL, X(), Num(Interval(0, 10)))
        assert got == Num(Interval(0, 10))

    def test_worked_example_interval(self):
        fixture = interpreter_fixture("single")
        program_abs = abstract_target_input(
            INTERVAL, encode_tgt_program(Single(AddN(42))), Num(Interval(0, 10))
        )
        got = analyze_meta_abstract(INTERVAL, fixture, program_abs)
        assert got == Num(Interval(42, 52))

    def test_sign_of_scaled_negatives(self):
        fixture = interpreter_fixture("single")
        program_abs = abstract_target_input(
            SIGN, encode_tgt_program(Single(MulN(42))), Num(SignSet.of(Sign.NEG))
        )
        got = analyze_meta_abstract(SIGN, fixture, program_abs)
        for i in range(-20, 0):
            assert contains(got, SInt(eval_tgt(Single(MulN(42)), i)))

    def test_soundness_on_small_concretizations(self):
        # Exhaustive membership over bounded intervals.
        rng = random.Random(31)
        for _ in range(200):
            lo = rng.randint(-8, 8)
            hi = lo + rng.randint(0, 4)
            value_shape_int = rng.random() < 0.6
            if value_shape_int:
                abstract = Num(Interval(lo, hi))
                members = [SInt(n) for n in range(lo, hi + 1)]
            else:
                abstract = APair(Num(Interval(lo, hi)), Num(Interval(0, 1)))
                members = [SPair(SInt(n), SInt(b))
                           for n in range(lo, hi + 1) for b in (0, 1)]
            shape = shape_of(members[0])
            program = random_src_expr(rng, shape, depth=3)
            result = analyze_meta_abstract(INTERVAL, program, abstract)
            for member in members:
                assert contains(result, eval_src(program, member)), (
                    program, abstract, member)

    def test_monotone_in_the_input(self):
        rng = random.Random(37)
        for _ in range(300):
            lo = rng.randint(-20, 20)
            hi = lo + rng.randint(0, 10)
            small = Num(Interval(lo, hi))
            big = Num(Interval(lo - rng.randint(0, 5), hi + rng.randint(0, 5)))
            program = random_src_expr(rng, "int", depth=4)
            out_small = analyze_meta_abstract(INTERVAL, program, small)
            out_big = analyze_meta_abstract(INTERVAL, program, big)
            assert leq(out_small, out_big), (program, small, big)

    def test_eta_of_encoded_program_matches_structural_eta(self):
        encoded = encode_tgt_program(Single(AddN(42)))
        # add 42 encodes as (0, 42).
        assert abstract_target_input(INTERVAL, encoded, Num(Interval(0, 10))) == APair(
            APair(Num(Interval(0, 0)), Num(Interval(42, 42))), Num(Interval(0, 10))
        )
