"""The domain operators against ``domain_oracle``, the operators they
replaced.

Every rewritten function of ``retargeter.domains`` runs on the same
inputs as its copy in the oracle, on both domains: carrier methods on
sign sets and on intervals with small, huge and missing bounds, and
structured operators on ``Bot``, ``Top``, numbers, pairs, shapes that do
not match, and values that are not abstract at all.  The bridges run on
meta-language values that mix ``VAbs``, ``VTuple`` and ``VInt``.  Each
case must give an equal value of the same classes, or the same exception
class and message.  No result may hold a part that the public
constructors reject, such as an interval with its bounds the wrong way
round: operators build their results without the constructors' checks,
so nothing else would catch one.

The arithmetic operators take their operands from the domain they are
given, as every caller does (the interpreter abstracts with the same
domain it computes in).
"""

from __future__ import annotations

import domain_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from retargeter import domains
from retargeter.domains import (
    BOT,
    INTERVAL,
    SIGN,
    TOP,
    APair,
    Bot,
    Interval,
    Num,
    Sign,
    SignSet,
    Top,
    make_pair,
)
from retargeter.met.syntax import VAbs, VConstruct, VInt, VTuple
from retargeter.srclang import SInt, SPair

ORACLE_DOMAIN = {SIGN: oracle.SIGN, INTERVAL: oracle.INTERVAL}


# ---------------------------------------------------------------------------
# Moving values across, and comparing outcomes
# ---------------------------------------------------------------------------


def to_oracle(v, carrier: bool = False):
    """The oracle's copy of a value or domain of the package; anything
    that is not one, or does not hold one, is returned as it is.  A number
    of the package is its carrier value, which the oracle boxes in its
    ``Num``: the copy is that box, or with ``carrier`` (for what a carrier
    method takes and gives) the oracle's carrier value alone."""
    t = type(v)
    if t is type:
        return ORACLE_DOMAIN.get(v, v)
    if t is SignSet or t is Interval:
        n = (oracle.SignSet(frozenset(oracle.Sign(s.value) for s in v.signs))
             if t is SignSet else oracle.Interval(v.lo, v.hi))
        return n if carrier else oracle.Num(n)
    if t is APair:
        return oracle.APair(to_oracle(v.fst), to_oracle(v.snd))
    if t is Bot:
        return oracle.Bot()
    if t is Top:
        return oracle.Top()
    if t is VAbs:
        return VAbs(to_oracle(v.value))
    if t is VTuple:
        return VTuple(to_oracle(v.fst), to_oracle(v.snd))
    if t is tuple:
        return tuple(to_oracle(x, carrier) for x in v)
    return v


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and message of what it
    raises."""
    try:
        return fn(*args)
    except Exception as err:   # noqa: BLE001 - every exception is compared
        return type(err), str(err)


def same(new, old, carrier: bool = False) -> bool:
    """Whether an outcome of the package equals one of the oracle, with
    the same class (so ``True`` is not ``1``)."""
    new = to_oracle(new, carrier)
    return type(new) is type(old) and new == old


def malformed(v) -> list:
    """The parts of ``v`` that no public constructor would build: an
    interval with its bounds the wrong way round, an empty sign set, or a
    pair with a ``Bot`` component."""
    t = type(v)
    if t is Interval:
        return [v] if v.lo is not None and v.hi is not None and v.lo > v.hi else []
    if t is SignSet:
        return [] if v.signs else [v]
    if t is APair:
        bot = [v] if type(v.fst) is Bot or type(v.snd) is Bot else []
        return bot + malformed(v.fst) + malformed(v.snd)
    return []


def agree(name: str, *args) -> None:
    """``domains.<name>`` and ``oracle.<name>`` agree on ``args``."""
    new = outcome(getattr(domains, name), *args)
    assert not malformed(new), (name, args, new)
    old = outcome(getattr(oracle, name), *map(to_oracle, args))
    assert same(new, old), (name, args, new, old)


def agree_method(receiver, method: str, *args) -> None:
    """A carrier method and the oracle's copy agree on ``args``."""
    new = outcome(getattr(receiver, method), *args)
    assert not malformed(new), (receiver, method, args, new)
    old = outcome(getattr(to_oracle(receiver, True), method),
                  *(to_oracle(a, True) for a in args))
    assert same(new, old, True), (receiver, method, args, new, old)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# Small bounds make singletons, equal and disjoint intervals common; huge
# ones go far past any float; None is an unbounded side.
bounds = st.one_of(st.none(), st.integers(-3, 3), st.integers(-10**40, 10**40))
integers = st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40))


@st.composite
def intervals(draw):
    lo, hi = draw(bounds), draw(bounds)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


sign_sets = st.sets(st.sampled_from(list(Sign)), min_size=1).map(
    lambda s: SignSet(frozenset(s)))
CARRIERS = {SIGN: sign_sets, INTERVAL: intervals()}


def abs_values(nums):
    """Abstract values over ``nums``, built by the public constructors and
    by the operators, whose results skip the constructors' checks."""
    leaves = st.one_of(st.just(BOT), st.just(Bot()), st.just(TOP), st.builds(Num, nums))
    trees = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(make_pair, children, children),
            st.builds(APair, children.filter(lambda v: type(v) is not Bot),
                      children.filter(lambda v: type(v) is not Bot)),
        ),
        max_leaves=6,
    )
    return st.one_of(trees, st.builds(domains.join, trees, trees))


# Inputs that are not abstract values at all.
junk = st.sampled_from([7, None, "top", (1, 2)])


def met_values(domain):
    """Meta-language values mixing integers, tuples, abstract values of
    ``domain`` and, rarely, a constructor (which neither bridge accepts)."""
    leaves = st.one_of(
        st.builds(VInt, integers),
        st.builds(VAbs, abs_values(CARRIERS[domain])),
        st.builds(VConstruct, st.just("Nil"), st.just(())),
        st.builds(VConstruct, st.just("Num"), st.tuples(st.builds(VInt, integers))),
    )
    return st.recursive(leaves, lambda children: st.builds(VTuple, children, children),
                        max_leaves=6)


src_values = st.recursive(
    st.builds(SInt, integers),
    lambda children: st.builds(SPair, children, children),
    max_leaves=4,
)


# ---------------------------------------------------------------------------
# Carrier methods
# ---------------------------------------------------------------------------


def carrier_cases(domain):
    @given(CARRIERS[domain], CARRIERS[domain], integers)
    @settings(max_examples=200, deadline=None)
    def check(x, y, n):
        for method in ("leq", "join", "add", "mul", "eq"):
            agree_method(x, method, y)
        agree_method(x, "contains", n)
        agree_method(x, "may_be_nonzero")
        agree_method(x, "may_be_zero")
        agree_method(domain, "eta_int", n)
        agree_method(domain, "top")
        assert str(x) == str(to_oracle(x))
    return check


def test_sign_carrier_agrees():
    carrier_cases(SIGN)()


def test_interval_carrier_agrees():
    carrier_cases(INTERVAL)()


# ---------------------------------------------------------------------------
# Structured operators
# ---------------------------------------------------------------------------


def structured_cases(domain):
    values = abs_values(CARRIERS[domain])
    other = abs_values(CARRIERS[INTERVAL if domain is SIGN else SIGN])
    # Lattice operators and filters relate values of either carrier, and
    # anything else.
    any_values = st.one_of(values, other, junk)

    @given(values, values, any_values, any_values, src_values)
    @settings(max_examples=200, deadline=None)
    def check(a, b, x, y, v):
        for name in ("abs_add", "abs_mul", "abs_eq"):
            agree(name, a, b, domain)
        for p, q in ((a, b), (x, y), (a, x), (x, b)):
            for name in ("leq", "join", "filter_nonzero", "filter_zero", "make_pair"):
                agree(name, p, q)
        for p in (a, x):
            agree("contains", p, v)
            agree("abs_proj", p, True)
            agree("abs_proj", p, False)
    return check


def test_sign_structured_operators_agree():
    structured_cases(SIGN)()


def test_interval_structured_operators_agree():
    structured_cases(INTERVAL)()


def test_arithmetic_on_non_numbers_agrees():
    # Bot annihilates; anything else that is not two numbers, junk
    # included, degrades to numeric top.
    for domain in (SIGN, INTERVAL):
        for a in (BOT, TOP, APair(TOP, TOP), 7, None):
            for b in (BOT, TOP, Num(domain.eta_int(1)), "top"):
                for name in ("abs_add", "abs_mul", "abs_eq"):
                    agree(name, a, b, domain)
                    agree(name, b, a, domain)


# ---------------------------------------------------------------------------
# Bridges to meta-language values
# ---------------------------------------------------------------------------


def bridge_cases(domain):
    @given(met_values(domain))
    @settings(max_examples=200, deadline=None)
    def check(v):
        agree("met_value_to_abs", v)
        agree("eta_met_value", v, domain)
    return check


def test_sign_bridges_agree():
    bridge_cases(SIGN)()


def test_interval_bridges_agree():
    bridge_cases(INTERVAL)()
