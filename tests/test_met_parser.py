"""Parser, printer, and node census for the meta-language."""

from __future__ import annotations

import random

import pytest

from retargeter.errors import ParseError
from retargeter.met import parser
from retargeter.met.parser import parse_met
from retargeter.met.printer import count_nodes, print_met
from retargeter.met.syntax import (
    App,
    Construct,
    IntLit,
    Lambda,
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
    Proj2,
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

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-three"])
    def test_non_ascii_digit_is_an_unexpected_character(self, digit):
        # Integer literals are ASCII: neither a digit int() rejects nor one
        # it accepts starts a literal.
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_met(f"fun i -> {digit}")
        assert (err.value.line, err.value.column) == (1, 10)

    def test_identifiers_keep_unicode_letters(self):
        assert parse_met("fun \u00e9 -> \u00e9") == Lambda("\u00e9", Var("\u00e9"))
        assert parse_met("fun _\u00e9 -> _\u00e9") == Lambda("_\u00e9", Var("_\u00e9"))

    def test_error_position_counts_comment_lines(self):
        with pytest.raises(ParseError) as err:
            parse_met("# target: single\nfun i -> @")
        assert (err.value.line, err.value.column) == (2, 10)


def at_depth(frames: int, f):
    """``f()``, called ``frames`` host frames below this one."""
    return f() if frames == 0 else at_depth(frames - 1, f)


def parse_afresh(text: str, frames: int):
    """``parse_met(text)`` called ``frames`` frames down, the memo emptied."""
    parser._parse.cache_clear()
    return at_depth(frames, lambda: parse_met(text))


def levels(e) -> int:
    """The nesting of a chain of one-child nodes or of nodes whose last
    argument nests, counted without recursion."""
    n = 0
    while type(e) is not Var:
        e = e.arg if type(e) in (Proj1, Proj2) else e.args[-1]
        n += 1
    return n


class TestNestingLimit:
    """Brackets, pattern brackets and the bodies of ``let``, ``fun`` and
    ``match`` are counted, so the limit does not depend on how deep in the
    host stack ``parse_met`` is called."""

    @pytest.mark.parametrize("frames", [0, 300])
    @pytest.mark.parametrize("opening, nodes", [
        ("(", 0), ("(x, ", 0), ("eta(", 1), ("aadd(x, ", 1), ("Fst(", 1), ("Pair(1, ", 1),
    ], ids=["parentheses", "tuples", "arguments", "second-arguments",
            "constructor-arguments", "second-constructor-arguments"])
    def test_the_limit_deep_text_parses_and_one_deeper_fails(self, opening, nodes, frames):
        limit = parser.NESTING_LIMIT
        assert 246 <= limit < 400
        deep = parse_afresh(opening * limit + "x" + ")" * limit, frames)
        if opening != "(x, ":
            assert levels(deep) == nodes * limit
        with pytest.raises(ParseError, match="nested too deeply") as err:
            parse_afresh(opening * (limit + 1) + "x" + ")" * (limit + 1), frames)
        assert err.value.line is None

    @pytest.mark.parametrize("frames", [0, 300])
    def test_a_run_of_projections_has_its_own_limit(self, frames):
        limit = parser.PROJECTION_LIMIT
        deep = parse_afresh("fun i -> eta(" + "fst " * limit + "i)", frames)
        assert levels(deep.body) == limit + 1
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_afresh("fst " * (limit + 1) + "i", frames)

    @pytest.mark.parametrize("frames", [0, 300])
    def test_projections_are_counted_across_brackets(self, frames):
        # The projections of a chain add up whatever brackets split it,
        # so no projection chain in a parsed tree is longer than the limit.
        half = parser.PROJECTION_LIMIT // 2
        deep = parse_afresh("fun i -> eta(" + "fst " * half + "((" + "snd " * half + "i)))",
                            frames)
        assert levels(deep.body) == 2 * half + 1
        for text in ("fst " * 600 + "(" + "fst " * 600 + "i)",
                     "fun i -> eta(" + ("fst " * 1000 + "(") * 50 + "i" + ")" * 51,
                     "fst " * half + "(let y = 1 in " + "snd " * (half + 1) + "y)"):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse_afresh(text, frames)

    def test_projection_runs_side_by_side_are_not_added(self):
        limit = parser.PROJECTION_LIMIT
        run = "fst " * limit + "x"
        pair = parse_afresh(f"({run}, {run} + {run})", 0)
        assert levels(pair.fst) == limit

    @pytest.mark.parametrize("frames", [0, 600])
    @pytest.mark.parametrize("chain", [
        lambda n: "let y = 1 in " * n + "y",
        lambda n: "let rec f y = y in " * n + "f",
        lambda n: "let y = " * n + "1" + " in y" * n,
        lambda n: "fun y -> " * n + "y",
        lambda n: "match y with | _ -> " * n + "y",
        lambda n: "match " * n + "y" + " with y -> y" * n,
    ], ids=["let-bodies", "let-rec-bodies", "let-bounds", "fun-bodies", "match-branches",
            "match-scrutinees"])
    def test_let_fun_and_match_bodies_are_counted(self, chain, frames):
        # Each body costs the parser a host frame, as a bracket does, so a
        # chain of them past the limit fails at every depth of the caller.
        limit = parser.NESTING_LIMIT
        assert parse_afresh(chain(limit), frames)
        with pytest.raises(ParseError, match="nested too deeply") as err:
            parse_afresh(chain(limit + 1), frames)
        assert err.value.line is None
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_afresh(chain(500), frames)

    @pytest.mark.parametrize("frames", [0, 600])
    @pytest.mark.parametrize("opening", ["Fst(", "(", "(_, ", "Pair(_, "],
                             ids=["constructor", "parentheses", "tuple", "second-argument"])
    def test_pattern_brackets_are_counted(self, opening, frames):
        # A pattern is inside its match, one level down.
        depth = parser.NESTING_LIMIT - 1

        def text(n):
            return f"match x with {opening * n}z{')' * n} -> z"
        pat = parse_afresh(text(depth), frames).branches[0][0]
        if opening == "Fst(":
            for _ in range(depth):
                pat = pat.args[0]
            assert pat == PVar("z")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_afresh(text(depth + 1), frames)

    def test_brackets_and_bodies_share_the_limit(self):
        limit = parser.NESTING_LIMIT
        inner = "eta(" * (limit - 2) + "x" + ")" * (limit - 2)
        assert parse_afresh(f"let y = 1 in match y with | _ -> {inner}", 0)
        for text in (f"let y = 1 in match y with | _ -> ({inner})",
                     f"let y = 1 in fun z -> match y with | _ -> {inner}",
                     "(" * (limit - 1) + "let y = 1 in (y))" + ")" * (limit - 2)):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse_afresh(text, 0)


class TestMemo:
    def test_the_same_text_gives_the_same_tree(self):
        text = "let x = 1 in (x, eta(x))"
        assert parse_met(text) is parse_met(text)

    def test_the_memo_keeps_only_the_latest_texts(self):
        text = "fun i -> aadd(fst i, eta(snd i))"
        first = parse_met(text)
        assert parse_met(text) is first
        for k in range(parser.MEMO_SIZE):
            parse_met(f"fun i -> eta({k})")
        again = parse_met(text)
        assert again == first and again is not first

    def test_a_malformed_text_is_parsed_again_and_fails_alike(self, monkeypatch):
        kept = parse_met("fun i -> eta(i)")
        built = []

        class CountingParser(parser._Parser):
            def __init__(self, source):
                built.append(source)
                super().__init__(source)

        monkeypatch.setattr(parser, "_Parser", CountingParser)
        bad = [f"let x{k} = in x" for k in range(parser.MEMO_SIZE)]
        for text in bad:
            errors = []
            for _ in range(2):
                with pytest.raises(ParseError) as err:
                    parse_met(text)
                errors.append((str(err.value), err.value.line, err.value.column))
            assert errors[0] == errors[1] and errors[0][1:] == (1, 10)
        # Every failure parsed afresh and took no place in the memo.
        assert built == [text for text in bad for _ in range(2)]
        assert parse_met("fun i -> eta(i)") is kept

    def test_a_text_laid_out_differently_is_parsed_apart(self):
        a = "fun i -> aadd(fst i, eta(1))"
        b = "fun i ->\n  aadd(fst i,  eta(1))  # the same tree\n"
        assert parse_met(a) is parse_met(a) and parse_met(b) is parse_met(b)
        assert parse_met(a) == parse_met(b) and parse_met(a) is not parse_met(b)


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
