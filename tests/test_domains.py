"""Lattice laws and operator soundness for the abstract domains."""

from __future__ import annotations

import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retargeter.domains import (
    APair,
    BOT,
    INTERVAL,
    Interval,
    Num,
    SIGN,
    Sign,
    SignSet,
    TOP,
    abs_add,
    abs_eq,
    abs_mul,
    abs_proj,
    contains,
    eta_met_value,
    filter_nonzero,
    filter_zero,
    format_abs,
    get_domain,
    join,
    leq,
    make_pair,
    parse_abs,
    sample_member,
)
from retargeter.errors import ParseError
from retargeter.srclang import SInt, SPair, embed_src_value


def eta(v, domain):
    """Most precise abstraction of one source value, by the rule the
    interpreter's ``eta`` runs."""
    return eta_met_value(embed_src_value(v), domain)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

sign_sets = st.sets(st.sampled_from(list(Sign)), min_size=1).map(
    lambda s: SignSet(frozenset(s))
)


@st.composite
def intervals(draw):
    lo = draw(st.one_of(st.none(), st.integers(-100, 100)))
    hi = draw(st.one_of(st.none(), st.integers(-100, 100)))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


def abs_values(num_strategy):
    nums = st.builds(Num, num_strategy)
    leaves = st.one_of(st.just(BOT), st.just(TOP), nums)
    return st.recursive(
        leaves,
        lambda children: st.builds(make_pair, children, children),
        max_leaves=6,
    )


DOMAIN_CASES = [(SIGN, sign_sets), (INTERVAL, intervals())]


# ---------------------------------------------------------------------------
# Examples pinned from the operation contracts
# ---------------------------------------------------------------------------


class TestExamples:
    def test_eta_interval_singleton(self):
        assert eta(SInt(0), INTERVAL) == Num(Interval(0, 0))

    def test_eta_sign(self):
        assert eta(SInt(-5), SIGN) == Num(SignSet.of(Sign.NEG))

    def test_eta_structural(self):
        v = SPair(SInt(0), SInt(42))
        expected = APair(Num(Interval(0, 0)), Num(Interval(42, 42)))
        assert eta(v, INTERVAL) == expected
        assert contains(eta(v, INTERVAL), v)

    def test_contains_interval(self):
        assert contains(Num(Interval(0, 10)), SInt(5))

    def test_bot_contains_nothing(self):
        for v in [SInt(0), SPair(SInt(1), SInt(2))]:
            assert not contains(BOT, v)

    def test_contains_componentwise(self):
        a = APair(Num(SignSet.of(Sign.POS)), TOP)
        assert contains(a, SPair(SInt(3), SPair(SInt(1), SInt(1))))
        assert not contains(a, SPair(SInt(-3), SInt(1)))
        assert not contains(a, SInt(3))

    def test_leq_examples(self):
        assert leq(BOT, Num(Interval(5, 5)))
        assert leq(Num(Interval(1, 2)), Num(Interval(0, 5)))
        assert not leq(Num(Interval(0, 5)), Num(Interval(1, 2)))

    def test_join_examples(self):
        assert join(BOT, Num(SignSet.of(Sign.POS))) == Num(SignSet.of(Sign.POS))
        assert join(Num(Interval(0, 1)), Num(Interval(5, 6))) == Num(Interval(0, 6))
        assert join(Num(Interval(0, 0)), APair(TOP, TOP)) == TOP

    def test_abs_add_interval(self):
        got = abs_add(Num(Interval(42, 42)), Num(Interval(0, 10)), INTERVAL)
        assert got == Num(Interval(42, 52))

    def test_abs_mul_sign(self):
        got = abs_mul(Num(SignSet.of(Sign.NEG)), Num(SignSet.of(Sign.POS)), SIGN)
        assert got == Num(SignSet.of(Sign.NEG))

    def test_abs_eq_singletons(self):
        got = abs_eq(Num(Interval(0, 0)), Num(Interval(0, 0)), INTERVAL)
        assert got == Num(Interval(1, 1))

    def test_abs_eq_disjoint(self):
        got = abs_eq(Num(Interval(0, 1)), Num(Interval(5, 9)), INTERVAL)
        assert got == Num(Interval(0, 0))

    def test_arith_on_pairs_degrades_to_numeric_top(self):
        got = abs_add(APair(TOP, TOP), Num(Interval(1, 1)), INTERVAL)
        assert got == Num(Interval(None, None))

    def test_bot_annihilates(self):
        assert abs_mul(BOT, TOP, SIGN) == BOT

    def test_filter_examples(self):
        v = Num(Interval(42, 52))
        assert filter_nonzero(Num(Interval(1, 1)), v) == v
        assert filter_zero(Num(Interval(1, 1)), v) == BOT
        assert filter_nonzero(TOP, v) == v
        assert filter_nonzero(APair(TOP, TOP), v) == BOT
        assert filter_zero(BOT, v) == BOT

    def test_projections(self):
        p = APair(Num(Interval(1, 2)), Num(Interval(3, 4)))
        assert abs_proj(p, True) == Num(Interval(1, 2))
        assert abs_proj(p, False) == Num(Interval(3, 4))
        assert abs_proj(TOP, True) == TOP
        assert abs_proj(Num(Interval(1, 1)), True) == BOT

    def test_interval_mul_with_infinities(self):
        assert Interval(None, -1).mul(Interval(None, -1)) == Interval(1, None)
        assert Interval(0, 0).mul(Interval(None, None)) == Interval(0, 0)
        assert Interval(1, 2).mul(Interval(None, 5)) == Interval(None, 10)

    def test_pair_normalizes_bot(self):
        assert make_pair(BOT, TOP) == BOT
        with pytest.raises(ValueError):
            APair(BOT, TOP)


class TestValidationAndSharing:
    """The public constructors check what enters from outside; operator
    results skip the check and share what can be shared."""

    def test_public_constructors_reject_empty_values(self):
        with pytest.raises(ValueError, match="empty interval"):
            Interval(5, 3)
        with pytest.raises(ValueError, match="empty sign set"):
            SignSet(frozenset())

    @pytest.mark.parametrize("signs", [{"+"}, {Sign.POS, "0"}, {0}, {None}, {"NEG"}])
    def test_a_sign_set_holds_only_signs(self, signs):
        # A string member used to pass and fail later in the sign tables
        # with a bare KeyError.
        with pytest.raises(ValueError, match="Sign members"):
            SignSet(frozenset(signs))

    @pytest.mark.parametrize("lo,hi", [("a", 3), (1.5, 3), (True, 3), (0, False), (1, 2.0),
                                       (None, "inf"), (float("-inf"), None)])
    def test_an_interval_bound_is_an_int_or_none(self, lo, hi):
        # A string bound used to fail with a bare TypeError, and a float
        # or bool bound was accepted (``Interval(True, 3)`` printed
        # ``[True,3]``).
        with pytest.raises(ValueError, match="an int or None"):
            Interval(lo, hi)

    def test_well_typed_members_are_accepted(self):
        assert str(Interval(None, 3)) == "[-inf,3]"
        assert str(Interval(-10**40, 10**40)) == f"[{-10**40},{10**40}]"
        assert str(SignSet(frozenset(Sign))) == "{-,0,+}"

    def test_operators_skip_the_constructor_checks(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an operator ran a public constructor's check")
        values = [Num(d.eta_int(n)) for d in (SIGN, INTERVAL) for n in (-3, 0, 4)]
        monkeypatch.setattr(SignSet, "__post_init__", refuse)
        monkeypatch.setattr(Interval, "__post_init__", refuse)
        for a, b in itertools.product(values, repeat=2):
            if type(a.num) is type(b.num):
                domain = type(a.num)
                for op in (abs_add, abs_mul, abs_eq):
                    op(a, b, domain)
                join(a, b)
        assert INTERVAL.eta_int(5) == Num(INTERVAL.eta_int(5)).num

    def test_sign_eta_is_shared(self):
        assert SIGN.eta_int(3) is SIGN.eta_int(9)
        assert SIGN.eta_int(-3) is SIGN.eta_int(-9)
        assert SIGN.top() is SIGN.top()

    def test_sign_operators_return_table_entries(self):
        nonempty = [SignSet(frozenset(c)) for r in range(1, 4)
                    for c in itertools.combinations(Sign, r)]
        shared = {}
        for a, b in itertools.product(nonempty, repeat=2):
            for result in (a.add(b), a.mul(b), a.eq(b), a.join(b)):
                assert shared.setdefault(result.signs, result) is result, (a, b)
        assert len(shared) == 7
        for n in (-4, 0, 4):
            assert SIGN.eta_int(n) is shared[SIGN.eta_int(n).signs]

    def test_interval_eq_results_are_shared(self):
        assert Interval(2, 2).eq(Interval(2, 2)) is Interval(7, 7).eq(Interval(7, 7))
        assert Interval(0, 1).eq(Interval(5, 9)) is Interval(3, 4).eq(Interval(None, 0))
        assert Interval(0, 5).eq(Interval(5, 9)) is Interval(None, None).eq(Interval(1, 1))


ROUND_TRIP_CASES = [
    ("bot", INTERVAL), ("top", SIGN), ("[0,10]", INTERVAL),
    ("[-inf,+inf]", INTERVAL), ("{-,0,+}", SIGN), ("{0}", SIGN),
    ("([1,2], top)", INTERVAL), ("(bot, top)", SIGN),
]


class TestTextualForms:
    # Each case is named by its text and its position, which keeps the
    # test ids stable whatever the domain objects' names are.
    @pytest.mark.parametrize("text,domain", ROUND_TRIP_CASES, ids=[
        f"{text}-domain{i}" for i, (text, _) in enumerate(ROUND_TRIP_CASES)
    ])
    def test_round_trip(self, text, domain):
        value = parse_abs(text, domain)
        assert parse_abs(format_abs(value), domain) == value

    def test_parse_pair(self):
        got = parse_abs("([1,2], [3,4])", INTERVAL)
        assert got == APair(Num(Interval(1, 2)), Num(Interval(3, 4)))

    def test_parse_errors(self):
        for text, domain in [
            ("[1,2]", SIGN), ("{0}", INTERVAL), ("[2,", INTERVAL),
            ("{}", SIGN), ("nope", SIGN), ("[a,b]", INTERVAL), ("(top)", SIGN),
            ("[5,3]", INTERVAL), ("(top, [1,-1])", INTERVAL),
        ]:
            with pytest.raises(ParseError):
                parse_abs(text, domain)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_abs("(" * 2000 + "top" + ", top)" * 2000, INTERVAL)

    @pytest.mark.parametrize("text", ["[\u0661,2]", "[1_000,2]", "[+1,2]", "[0,\u0662]"])
    def test_bound_is_ascii_digits_with_optional_minus(self, text):
        # Python's int() takes each bound here; the interval syntax does not.
        with pytest.raises(ParseError, match="malformed interval bound"):
            parse_abs(text, INTERVAL)

    @pytest.mark.parametrize("text", ["[0," + "9" * 5000 + "]", "[-" + "9" * 4999 + ",0]"],
                             ids=["upper", "lower"])
    def test_overlong_bound_is_reported_by_its_length(self, text):
        with pytest.raises(ParseError) as info:
            parse_abs(text, INTERVAL)
        assert str(info.value) == "integer literal too long (5000 characters)"

    def test_bounds(self):
        assert parse_abs("[ -3 , 007 ]", INTERVAL) == Num(Interval(-3, 7))
        assert parse_abs("[-inf,inf]", INTERVAL) == Num(Interval(None, None))

    def test_get_domain(self):
        assert get_domain("sign") is SIGN
        assert get_domain("interval") is INTERVAL
        with pytest.raises(ValueError):
            get_domain("octagon")


# ---------------------------------------------------------------------------
# Lattice laws (randomized)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain,nums", DOMAIN_CASES, ids=["sign", "interval"])
class TestLatticeLaws:
    def test_laws(self, domain, nums):
        values = abs_values(nums)

        @given(values)
        @settings(max_examples=300)
        def reflexive(a):
            assert leq(a, a)
            assert leq(BOT, a)
            assert leq(a, TOP)

        @given(values, values)
        @settings(max_examples=300)
        def join_upper_bound(a, b):
            j = join(a, b)
            assert leq(a, j) and leq(b, j)
            assert join(a, b) == join(b, a)

        @given(values)
        @settings(max_examples=300)
        def join_identity(a):
            assert join(a, a) == a
            assert join(a, BOT) == a
            assert join(a, TOP) == TOP

        @given(values, values, values)
        @settings(max_examples=300)
        def join_associative(a, b, c):
            assert join(join(a, b), c) == join(a, join(b, c))

        @given(values, values, values)
        @settings(max_examples=300)
        def leq_transitive(a, b, c):
            if leq(a, b) and leq(b, c):
                assert leq(a, c)

        for law in (reflexive, join_upper_bound, join_identity,
                    join_associative, leq_transitive):
            law()


# ---------------------------------------------------------------------------
# Soundness against concrete operations (randomized, sampled members)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain,nums", DOMAIN_CASES, ids=["sign", "interval"])
class TestOperatorSoundness:
    def test_gamma_monotone_with_leq(self, domain, nums):
        rng = random.Random(101)

        @given(abs_values(nums), abs_values(nums))
        @settings(max_examples=300)
        def law(a, b):
            if not leq(a, b):
                return
            v = sample_member(a, rng)
            if v is not None:
                assert contains(b, v)

        law()

    def test_eta_soundness(self, domain, nums):
        rng = random.Random(102)
        from retargeter.srclang import random_src_value

        for _ in range(500):
            v = random_src_value(rng, 3, 10**6)
            assert contains(eta(v, domain), v)

    def test_arith_soundness(self, domain, nums):
        rng = random.Random(103)
        ops = [
            (abs_add, lambda x, y: x + y),
            (abs_mul, lambda x, y: x * y),
            (abs_eq, lambda x, y: 1 if x == y else 0),
        ]

        @given(st.builds(Num, nums), st.builds(Num, nums))
        @settings(max_examples=300)
        def law(a, b):
            va, vb = sample_member(a, rng), sample_member(b, rng)
            for abstract_op, concrete_op in ops:
                result = abstract_op(a, b, domain)
                assert contains(result, SInt(concrete_op(va.value, vb.value)))

        law()

    def test_filter_soundness(self, domain, nums):
        rng = random.Random(104)

        @given(st.builds(Num, nums), abs_values(nums))
        @settings(max_examples=300)
        def law(pred, v):
            p = sample_member(pred, rng)
            member = sample_member(v, rng)
            if member is None:
                return
            if p.value != 0:
                assert contains(filter_nonzero(pred, v), member)
            else:
                assert contains(filter_zero(pred, v), member)

        law()


# ---------------------------------------------------------------------------
# Exactness of the sign operators (exhaustive)
# ---------------------------------------------------------------------------

CONCRETE_OPS = {"add": operator.add, "mul": operator.mul, "eq": lambda x, y: int(x == y)}


@pytest.mark.parametrize("op", CONCRETE_OPS)
def test_sign_operators_are_exact(op):
    # Exactness, not just soundness: the result holds the sign of op(x, y)
    # for some members x, y, and no other sign.  The members -3..3 reach
    # every sign any pair of sign sets can produce.
    def sign(n):
        return Sign.NEG if n < 0 else Sign.ZERO if n == 0 else Sign.POS

    nonempty = [frozenset(c) for r in range(1, 4) for c in itertools.combinations(Sign, r)]
    for a, b in itertools.product(nonempty, repeat=2):
        reached = frozenset(sign(CONCRETE_OPS[op](x, y))
                            for x in range(-3, 4) if sign(x) in a
                            for y in range(-3, 4) if sign(y) in b)
        assert getattr(SignSet(a), op)(SignSet(b)) == SignSet(reached), (a, b)
