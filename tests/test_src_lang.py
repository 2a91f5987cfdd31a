"""Source language: parsing, evaluation, embedding, generators."""

from __future__ import annotations

import random

import pytest

from retargeter.errors import ParseError, StuckError
from retargeter.met.syntax import VConstruct, VInt, VTuple
from retargeter.srclang import (
    Add,
    Fst,
    If,
    Num,
    SInt,
    SPair,
    X,
    embed_src_expr,
    embed_src_value,
    eval_src,
    parse_src,
    print_src,
    random_src_expr,
    random_src_value,
    shape_of,
)
from srcdata import gen_random_src_value, unembed_src_expr, unembed_src_value


class TestParse:
    def test_variable(self):
        assert parse_src("x") == X()

    def test_projection(self):
        assert parse_src("(fst x)") == Fst(X())

    def test_conditional(self):
        got = parse_src("(if (= x 0) 1 (+ x -2))")
        assert got == If(
            parse_src("(= x 0)"), Num(1), Add(X(), Num(-2))
        )

    def test_errors(self):
        for bad in ["", "(huh x)", "(+ 1)", "(fst x))", "y"]:
            with pytest.raises(ParseError):
                parse_src(bad)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_src("(fst " * 2000 + "x" + ")" * 2000)

    @pytest.mark.parametrize("literal", ["\u0661", "1_000", "+1", "\uff11"])
    def test_integer_literal_is_ascii_digits_with_optional_minus(self, literal):
        # Python's int() takes each of these; the .src syntax does not.
        with pytest.raises(ParseError, match="unexpected token"):
            parse_src(f"(+ x {literal})")

    def test_overlong_integer_literal_is_reported_by_its_length(self):
        with pytest.raises(ParseError) as info:
            parse_src("(+ x " + "9" * 5000 + ")")
        assert str(info.value) == "integer literal too long (5000 characters)"

    def test_integer_literals(self):
        assert parse_src("(+ -12 007)") == Add(Num(-12), Num(7))

    def test_parses_what_print_src_prints_600_deep(self):
        e = X()
        for _ in range(600):
            e = Add(Num(1), e)
        # Compared as text: dataclass equality itself recurses too deeply.
        text = print_src(e)
        assert print_src(parse_src(text)) == text

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(300):
            v = random_src_value(rng, 2, 50)
            e = random_src_expr(rng, shape_of(v), depth=4)
            assert parse_src(print_src(e)) == e


class TestEval:
    def test_addition_with_input(self):
        assert eval_src(parse_src("(+ 1 x)"), SInt(2)) == SInt(3)

    def test_projection(self):
        assert eval_src(Fst(X()), SPair(SInt(7), SInt(8))) == SInt(7)

    def test_equality_yields_unit_integers(self):
        assert eval_src(parse_src("(= x 5)"), SInt(5)) == SInt(1)
        assert eval_src(parse_src("(= x 5)"), SInt(6)) == SInt(0)

    def test_conditional_tests_nonzero(self):
        branchy = parse_src("(if x 10 20)")
        assert eval_src(branchy, SInt(-3)) == SInt(10)
        assert eval_src(branchy, SInt(0)) == SInt(20)

    @pytest.mark.parametrize("text,value", [
        ("(fst x)", SInt(1)),               # projection of an integer
        ("(+ x 1)", SPair(SInt(1), SInt(1))),  # arithmetic on a pair
        ("(if x 1 2)", SPair(SInt(0), SInt(0))),  # pair predicate
        ("(= x x)", SPair(SInt(1), SInt(1))),  # equality on pairs
    ])
    def test_stuck(self, text, value):
        with pytest.raises(StuckError):
            eval_src(parse_src(text), value)


class TestEmbedding:
    def test_embed_variable(self):
        assert embed_src_expr(X()) == VConstruct("X", ())

    def test_embed_literal(self):
        assert embed_src_expr(Num(3)) == VConstruct("Num", (VInt(3),))

    def test_embed_value(self):
        assert embed_src_value(SInt(0)) == VInt(0)
        assert embed_src_value(SPair(SInt(1), SInt(2))) == VTuple(VInt(1), VInt(2))

    def test_expr_round_trip_fuzz(self):
        rng = random.Random(11)
        for _ in range(1000):
            v = random_src_value(rng, 2, 50)
            e = random_src_expr(rng, shape_of(v), depth=4)
            assert unembed_src_expr(embed_src_expr(e)) == e

    def test_value_round_trip_fuzz(self):
        rng = random.Random(12)
        for _ in range(1000):
            v = random_src_value(rng, 3, 10**6)
            assert unembed_src_value(embed_src_value(v)) == v

    def test_deep_expression_round_trips(self):
        e = X()
        for _ in range(600):
            e = Add(Num(1), e)
        # Compared as text: dataclass equality itself recurses too deeply.
        text = print_src(e)
        assert text.count("(+ 1 ") == 600
        assert print_src(unembed_src_expr(embed_src_expr(e))) == text

    def test_unembed_rejects_junk(self):
        for junk in [
            VInt(3),
            VConstruct("Add", (VConstruct("X", ()),)),
            VConstruct("X", (VInt(1),)),
        ]:
            with pytest.raises(StuckError, match="not an embedded source expression"):
                unembed_src_expr(junk)


class TestGenerators:
    def test_depth_zero_forces_integer(self):
        for seed in range(50):
            assert isinstance(gen_random_src_value(seed, 0, 10), SInt)

    def test_deterministic_per_seed(self):
        assert gen_random_src_value(42) == gen_random_src_value(42)

    def test_bounds_respected(self):
        def check(v, depth_left):
            if isinstance(v, SInt):
                assert abs(v.value) <= 25
            else:
                assert depth_left > 0
                check(v.fst, depth_left - 1)
                check(v.snd, depth_left - 1)

        for seed in range(1000):
            check(gen_random_src_value(seed, 3, 25), 3)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            gen_random_src_value(0, 1, 0)

    def test_shaped_programs_do_not_get_stuck(self):
        rng = random.Random(13)
        for _ in range(500):
            v = random_src_value(rng, 2, 30)
            e = random_src_expr(rng, shape_of(v), depth=5)
            eval_src(e, v)  # must not raise
