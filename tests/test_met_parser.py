"""Parser, printer, and node census for the meta-language."""

from __future__ import annotations

import random

import pytest

from retargeter.errors import ParseError
from retargeter.met.parser import parse_met
from retargeter.met.printer import count_nodes, print_met
from retargeter.met.syntax import (
    App,
    Construct,
    IntLit,
    Let,
    LetRecFun,
    Match,
    PConstruct,
    PInt,
    PTuple,
    PVar,
    PWild,
    Prim,
    PrimOp,
    Proj1,
    Tuple,
    Var,
)

from astgen import random_met_expr


class TestParse:
    def test_projection_of_tuple(self):
        assert parse_met("fst (3, 4)") == Proj1(Tuple(IntLit(3), IntLit(4)))

    def test_let(self):
        assert parse_met("let x = 1 in x") == Let("x", IntLit(1), Var("x"))

    def test_letrec(self):
        got = parse_met("let rec f y = f y in f 1")
        assert got == LetRecFun("f", "y", App(Var("f"), Var("y")),
                                App(Var("f"), IntLit(1)))

    def test_infix_precedence(self):
        got = parse_met("1 + 2 * 3 = 7")
        assert got == Prim(PrimOp.EQ, (
            Prim(PrimOp.ADD, (IntLit(1), Prim(PrimOp.MUL, (IntLit(2), IntLit(3))))),
            IntLit(7),
        ))

    def test_application_is_left_associative(self):
        assert parse_met("f a b") == App(App(Var("f"), Var("a")), Var("b"))

    def test_match_with_patterns(self):
        got = parse_met("match e with | Num(n) -> n | (a, _) -> a | 0 -> 1")
        assert got == Match(Var("e"), (
            (PConstruct("Num", (PVar("n"),)), Var("n")),
            (PTuple(PVar("a"), PWild()), Var("a")),
            (PInt(0), IntLit(1)),
        ))

    def test_abstract_prim_call(self):
        got = parse_met("aadd(eta(1), x)")
        assert got == Prim(PrimOp.AADD, (Prim(PrimOp.ETA, (IntLit(1),)), Var("x")))

    def test_negative_literal(self):
        assert parse_met("-3") == IntLit(-3)
        assert parse_met("f -3") == App(Var("f"), IntLit(-3))

    def test_nullary_constructor(self):
        assert parse_met("X") == Construct("X", ())


class TestParseErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_met("let x = in x")
        assert err.value.line == 1
        assert err.value.column == 9

    def test_unknown_constructor(self):
        with pytest.raises(ParseError, match="unknown constructor"):
            parse_met("Bogus(1)")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="takes 2 argument"):
            parse_met("Add(1)")

    def test_nonlinear_pattern(self):
        with pytest.raises(ParseError, match="twice"):
            parse_met("match e with | (a, a) -> a")

    def test_prim_arity(self):
        with pytest.raises(ParseError, match="argument"):
            parse_met("eta(1, 2)")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_met("1 2)")

    def test_overlong_integer_literal_has_position(self):
        digits = "9" * 5000
        for text, column in ((digits, 1), (f"match x with | {digits} -> 0", 16)):
            with pytest.raises(ParseError, match="integer literal too long") as err:
                parse_met(text)
            assert (err.value.line, err.value.column) == (1, column)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_met("(" * 400 + "x" + ")" * 400)

    def test_error_position_counts_comment_lines(self):
        with pytest.raises(ParseError) as err:
            parse_met("# target: single\nfun i -> @")
        assert (err.value.line, err.value.column) == (2, 10)


class TestComments:
    def test_comments_are_skipped(self):
        rng = random.Random(7)
        for _ in range(200):
            printed = print_met(random_met_expr(rng, rng.randint(0, 5)))
            # Every space separates two tokens, so each can end a line
            # with a comment.
            commented = "# header\n" + printed.replace(" ", " # (a, b) -> fst\n") + "  # end"
            assert parse_met(commented) == parse_met(printed), commented

    def test_a_comment_may_end_the_text(self):
        assert parse_met("1 #") == parse_met("1") == IntLit(1)


class TestRoundTrip:
    def test_fixture_corpus(self):
        from corpus import CORPUS

        for entry in CORPUS:
            printed = print_met(entry.expr)
            assert parse_met(printed) == entry.expr, entry.name

    def test_random_asts(self):
        rng = random.Random(2024)
        for _ in range(400):
            expr = random_met_expr(rng, rng.randint(0, 5))
            printed = print_met(expr)
            assert parse_met(printed) == expr, printed

    def test_match_in_nonfinal_branch_is_parenthesized(self):
        inner = Match(Var("a"), ((PWild(), IntLit(1)),))
        outer = Match(Var("b"), ((PInt(0), inner), (PWild(), IntLit(2))))
        assert parse_met(print_met(outer)) == outer


class TestPrintedForms:
    def test_literal(self):
        assert print_met(IntLit(5)) == "5"

    def test_tuple(self):
        assert print_met(Tuple(IntLit(1), IntLit(2))) == "(1, 2)"

    def test_projection(self):
        assert print_met(Proj1(Tuple(IntLit(3), IntLit(4)))) == "fst (3, 4)"

    def test_infix(self):
        assert print_met(parse_met("1 + 2 * 3 = 7")) == "1 + 2 * 3 = 7"


class TestCountNodes:
    def test_single_literal(self):
        assert count_nodes(IntLit(5)) == {"IntLit": 1}

    def test_prim_census(self):
        got = count_nodes(Prim(PrimOp.AADD, (Var("a"), Var("b"))))
        assert got == {"Prim": 1, "AADD": 1, "Var": 2}

    def test_counts_cover_branches(self):
        expr = parse_met("match x with | 0 -> eta(1) | _ -> eta(2)")
        got = count_nodes(expr)
        assert got["Match"] == 1
        assert got["ETA"] == 2
