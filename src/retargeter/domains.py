"""Structured abstract values over pluggable numeric domains.

An abstract value mirrors the shape of source-language values: ``Bot``
(no concrete value), a number (an abstraction of a set of integers),
``APair`` (componentwise abstraction of pairs), and ``Top`` (anything,
including shape mismatches).  The numeric layer is parametric: a
numeric domain is its carrier class, and two ship, sign sets
(:class:`SignSet`) and intervals (:class:`Interval`); a number is a value
of its carrier class, unboxed.  Everything the rest of the package needs
from a domain (its name, ``eta_int``, ``top``, the lattice and arithmetic
operators, its literal syntax and sampling) is a method or class
attribute of the carrier.

Concretization is exposed as a membership test (:func:`contains`) rather
than as a set constructor, which is what the soundness harnesses need.

Values are checked where they enter from outside: the public
constructors ``Interval(lo, hi)``, ``SignSet(signs)`` and ``APair(a, b)``
reject empty intervals, empty sign sets and pairs with a ``Bot``
component, and :func:`parse_abs` reports those as parse errors.  They
also reject, with ``ValueError``, a bound that is not an ``int`` (a
``bool`` included) or ``None`` and a sign set member that is not a
:class:`Sign`.  No operator can produce such a value, so operator
results are built with the unchecked builders ``_interval`` and
``_pair``.  The operators run on every step of a derived analyzer:
they dispatch on ``type(x)`` with the common case first, sign
operators return one of seven shared sign sets, and ``Interval.eq`` one
of three shared intervals.
"""

from __future__ import annotations

import enum
import itertools
import operator
import random
from typing import ClassVar

from .errors import ParseError, StuckError
from .met.syntax import MetValue, VAbs, VInt, VTuple, record
from .srclang import SInt, SPair, SrcValue, parse_int, random_src_value


# ---------------------------------------------------------------------------
# Numeric abstractions
# ---------------------------------------------------------------------------


class AbsValue:
    __slots__ = ()


class Sign(enum.Enum):
    NEG = "-"
    ZERO = "0"
    POS = "+"


# The operators use these: looking a member up on an enum class (``Sign.NEG``)
# costs a descriptor call, several times a module global lookup.
_NEG, _ZERO, _POS = Sign.NEG, Sign.ZERO, Sign.POS


def _sign_of(n: int) -> Sign:
    if n < 0:
        return _NEG
    if n == 0:
        return _ZERO
    return _POS


# Operator results skip the checks of the public constructors: they are
# allocated bare and their fields stored through the slot setters.
_new = object.__new__


@record
class SignSet(AbsValue):
    """A nonempty subset of {negative, zero, positive}."""

    name: ClassVar[str] = "sign"
    delimiters: ClassVar[str] = "{}"

    signs: frozenset[Sign]

    def __post_init__(self):
        if not self.signs:
            raise ValueError("empty sign set; use Bot at the structured level")
        for s in self.signs:
            if type(s) is not Sign:
                raise ValueError(f"a sign set holds Sign members, not {s!r}")

    @classmethod
    def of(cls, *signs: Sign) -> "SignSet":
        return cls(frozenset(signs))

    @classmethod
    def eta_int(cls, n: int) -> "SignSet":
        if n < 0:
            return _SIGN_NEG
        if n == 0:
            return _SIGN_ZERO
        return _SIGN_POS

    @classmethod
    def top(cls) -> "SignSet":
        return _SIGN_TOP

    @classmethod
    def parse(cls, body: str) -> "SignSet":
        """The sign set written ``{body}``, e.g. ``-,0``."""
        signs = set()
        for part in body.split(","):
            part = part.strip()
            try:
                signs.add(Sign(part))
            except ValueError:
                raise ParseError(f"unknown sign {part!r}") from None
        return cls(frozenset(signs))

    def sample(self, rng: random.Random, magnitude: int) -> int:
        sign = rng.choice(sorted(self.signs, key=lambda s: s.value))
        if sign is Sign.ZERO:
            return 0
        n = rng.randint(1, magnitude)
        return -n if sign is Sign.NEG else n

    def leq(self, other: "SignSet") -> bool:
        return self.signs <= other.signs

    def join(self, other: "SignSet") -> "SignSet":
        return _SIGN_JOIN_TABLE[self.signs, other.signs]

    def contains(self, n: int) -> bool:
        neg, zero, pos = _SIGN_MEMBERS[self.signs]
        return neg if n < 0 else zero if n == 0 else pos

    def add(self, other: "SignSet") -> "SignSet":
        return _SIGN_ADD_TABLE[self.signs, other.signs]

    def mul(self, other: "SignSet") -> "SignSet":
        return _SIGN_MUL_TABLE[self.signs, other.signs]

    def eq(self, other: "SignSet") -> "SignSet":
        return _SIGN_EQ_TABLE[self.signs, other.signs]

    def may_be_nonzero(self) -> bool:
        neg, _, pos = _SIGN_MEMBERS[self.signs]
        return neg or pos

    def may_be_zero(self) -> bool:
        return _SIGN_MEMBERS[self.signs][1]

    def __str__(self) -> str:
        order = [Sign.NEG, Sign.ZERO, Sign.POS]
        return "{" + ",".join(s.value for s in order if s in self.signs) + "}"


def _parse_bound(s: str, sign: int) -> int | None:
    s = s.strip()
    if (sign < 0 and s == "-inf") or (sign > 0 and s in ("+inf", "inf")):
        return None
    try:
        return parse_int(s)
    except ValueError:
        raise ParseError(f"malformed interval bound {s!r}") from None


@record
class Interval(AbsValue):
    """Integer interval; ``None`` bounds mean unbounded on that side."""

    name: ClassVar[str] = "interval"
    delimiters: ClassVar[str] = "[]"

    lo: int | None
    hi: int | None

    def __post_init__(self):
        for bound in (self.lo, self.hi):
            if bound is not None and type(bound) is not int:
                raise ValueError(f"an interval bound is an int or None, not {bound!r}")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo},{self.hi}]; use Bot")

    @classmethod
    def eta_int(cls, n: int) -> "Interval":
        return _interval(n, n)

    @classmethod
    def top(cls) -> "Interval":
        return _INTERVAL_TOP

    @classmethod
    def parse(cls, body: str) -> "Interval":
        """The interval written ``[body]``, e.g. ``-inf,3``."""
        parts = body.split(",")
        if len(parts) != 2:
            raise ParseError(f"malformed interval [{body}]")
        lo, hi = _parse_bound(parts[0], -1), _parse_bound(parts[1], +1)
        try:
            return cls(lo, hi)
        except ValueError:
            raise ParseError(f"empty interval [{body}]; use 'bot'") from None

    def sample(self, rng: random.Random, magnitude: int) -> int:
        lo, hi = self.lo, self.hi
        if lo is None and hi is None:
            return rng.randint(-magnitude, magnitude)
        if lo is None:
            return rng.randint(hi - 2 * magnitude, hi)
        if hi is None:
            return rng.randint(lo, lo + 2 * magnitude)
        return rng.randint(lo, hi)

    def leq(self, other: "Interval") -> bool:
        lo_ok = other.lo is None or (self.lo is not None and other.lo <= self.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return lo_ok and hi_ok

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return _interval(lo, hi)

    def contains(self, n: int) -> bool:
        if self.lo is not None and n < self.lo:
            return False
        if self.hi is not None and n > self.hi:
            return False
        return True

    def add(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return _interval(lo, hi)

    def mul(self, other: "Interval") -> "Interval":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a is not None and b is not None and c is not None and d is not None:
            ac, ad, bc, bd = a * c, a * d, b * c, b * d
            return _interval(min(ac, ad, bc, bd), max(ac, ad, bc, bd))
        products = [_bound_mul(x, y) for x in (_extend(a, -1), _extend(b, +1))
                    for y in (_extend(c, -1), _extend(d, +1))]
        lo, hi = min(products), max(products)
        return _interval(None if isinstance(lo, float) else lo,
                         None if isinstance(hi, float) else hi)

    def eq(self, other: "Interval") -> "Interval":
        lo = self.lo
        # Equal only when both are the same singleton.
        if (lo is not None and lo == self.hi and type(other) is Interval
                and other.lo == lo and other.hi == lo):
            return _INTERVAL_TRUE
        if self.disjoint_from(other):
            return _INTERVAL_FALSE
        return _INTERVAL_BOOL

    def disjoint_from(self, other: "Interval") -> bool:
        if self.hi is not None and other.lo is not None and self.hi < other.lo:
            return True
        if other.hi is not None and self.lo is not None and other.hi < self.lo:
            return True
        return False

    def may_be_nonzero(self) -> bool:
        return not (self.lo == 0 and self.hi == 0)

    def may_be_zero(self) -> bool:
        return self.contains(0)

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo},{hi}]"


def _extend(bound: int | None, sign: int) -> float | int:
    """A bound, with a missing one read as infinity of the given sign."""
    return sign * float("inf") if bound is None else bound


def _bound_mul(a: float | int, b: float | int) -> float | int:
    """Product of two extended bounds, with 0 * inf = 0."""
    if a == 0 or b == 0:
        return 0
    if isinstance(a, float) or isinstance(b, float):
        positive = (a > 0) == (b > 0)
        return float("inf") if positive else float("-inf")
    return a * b


_set_lo, _set_hi = Interval.lo.__set__, Interval.hi.__set__


def _interval(lo: int | None, hi: int | None) -> Interval:
    iv = _new(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


_INTERVAL_TOP = _interval(None, None)
# The three results of ``Interval.eq``: equal, unequal, either.
_INTERVAL_TRUE, _INTERVAL_FALSE, _INTERVAL_BOOL = _interval(1, 1), _interval(0, 0), _interval(0, 1)


# Each sign operator is its best transformer alpha . op . gamma (Cousot &
# Cousot 1979), tabulated at import for every pair of nonempty sign sets.
# Two members per sign give the same result signs as all of them: opposite
# signs add up to each sign (-2+1, -1+1, -1+2), the sign of a product
# depends only on the signs of its factors, and two members of NEG or of
# POS can be equal or not, while two members of ZERO are always equal.
_REPRESENTATIVES = {Sign.NEG: (-2, -1), Sign.ZERO: (0,), Sign.POS: (1, 2)}


# Every sign operator returns one of the seven shared nonempty sign sets.
_SIGN_SETS = {s: SignSet(s) for s in (frozenset(c) for r in range(1, 4)
                                      for c in itertools.combinations(Sign, r))}
_SIGN_NEG, _SIGN_ZERO, _SIGN_POS = (_SIGN_SETS[frozenset({s})] for s in (_NEG, _ZERO, _POS))
_SIGN_TOP = _SIGN_SETS[frozenset(Sign)]


def _tabulate(op) -> dict[tuple[frozenset[Sign], frozenset[Sign]], SignSet]:
    return {(a, b): _SIGN_SETS[frozenset(_sign_of(op(x, y))
                                         for s in a for x in _REPRESENTATIVES[s]
                                         for t in b for y in _REPRESENTATIVES[t])]
            for a in _SIGN_SETS for b in _SIGN_SETS}


_SIGN_ADD_TABLE = _tabulate(operator.add)
_SIGN_MUL_TABLE = _tabulate(operator.mul)
_SIGN_EQ_TABLE = _tabulate(lambda x, y: int(x == y))
_SIGN_JOIN_TABLE = {(a, b): _SIGN_SETS[a | b] for a in _SIGN_SETS for b in _SIGN_SETS}
# Whether each sign set holds NEG, ZERO and POS.  Looking a frozenset up
# uses its cached hash, where ``_ZERO in signs`` runs ``Sign.__hash__``.
_SIGN_MEMBERS = {a: (_NEG in a, _ZERO in a, _POS in a) for a in _SIGN_SETS}

# A numeric domain is its carrier class.
NumericDomain = type[SignSet] | type[Interval]
SIGN, INTERVAL = SignSet, Interval
DOMAINS = {d.name: d for d in (SIGN, INTERVAL)}
_CARRIERS = frozenset(DOMAINS.values())


def get_domain(name: str) -> NumericDomain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise ValueError(f"unknown domain {name!r}; expected one of {sorted(DOMAINS)}") from None


# ---------------------------------------------------------------------------
# Structured abstract values
# ---------------------------------------------------------------------------


@record
class Bot(AbsValue):
    def __str__(self) -> str:
        return "bot"


@record
class Top(AbsValue):
    def __str__(self) -> str:
        return "top"


@record
class APair(AbsValue):
    fst: AbsValue
    snd: AbsValue

    def __post_init__(self):
        if isinstance(self.fst, Bot) or isinstance(self.snd, Bot):
            raise ValueError("pair with a Bot component; normalize with make_pair")

    def __str__(self) -> str:
        return f"({self.fst}, {self.snd})"


BOT = Bot()
TOP = Top()


def Num(n: SignSet | Interval) -> SignSet | Interval:
    """``n``: a number is its carrier value.  Kept for ``perfbench/``, which
    builds ``domains.Num(domains.Interval(…))``, until ROADMAP item 1."""
    return n


_set_fst, _set_snd = APair.fst.__set__, APair.snd.__set__


def _pair(a: AbsValue, b: AbsValue) -> APair:
    v = _new(APair)
    _set_fst(v, a)
    _set_snd(v, b)
    return v


def make_pair(a: AbsValue, b: AbsValue) -> AbsValue:
    """Pair constructor normalizing Bot components to Bot."""
    if type(a) is Bot or type(b) is Bot:
        return BOT
    return _pair(a, b)


def check_domain(a: AbsValue, domain: NumericDomain) -> AbsValue:
    """``a``, after checking that every number in it is of ``domain``: the
    arithmetic operators take a number of another domain for numeric top."""
    t = type(a)
    if t is APair:
        check_domain(a.fst, domain)
        check_domain(a.snd, domain)
    elif t is not domain and t in _CARRIERS:
        raise ValueError(f"abstract input is of the {t.name!r} domain "
                         f"but the analysis is of the {domain.name!r} domain")
    return a


def contains(a: AbsValue, v: SrcValue) -> bool:
    """Concretization membership: is ``v`` described by ``a``?"""
    t = type(a)
    if t in _CARRIERS:
        return isinstance(v, SInt) and a.contains(v.value)
    if t is APair:
        return isinstance(v, SPair) and contains(a.fst, v.fst) and contains(a.snd, v.snd)
    if t is Top:
        return True
    if t is Bot:
        return False
    raise TypeError(f"not an abstract value: {a!r}")


def leq(a: AbsValue, b: AbsValue) -> bool:
    """Approximation order; Bot is least and Top greatest."""
    ta, tb = type(a), type(b)
    if ta is Bot or tb is Top:
        return True
    if ta is Top or tb is Bot:
        return False
    if ta in _CARRIERS:
        return ta is tb and a.leq(b)
    if ta is APair and tb is APair:
        return leq(a.fst, b.fst) and leq(a.snd, b.snd)
    return False


def join(a: AbsValue, b: AbsValue) -> AbsValue:
    """Least upper bound within the implemented lattice."""
    ta, tb = type(a), type(b)
    if ta is Bot:
        return b
    if tb is Bot:
        return a
    if ta is tb and ta in _CARRIERS:
        return a.join(b)
    if ta is APair and tb is APair:
        return make_pair(join(a.fst, b.fst), join(a.snd, b.snd))
    # Top, and mismatched shapes, which are only related through Top.
    return TOP


def _binary_arith(a: AbsValue, b: AbsValue, domain: NumericDomain, op) -> AbsValue:
    if type(a) is domain and type(b) is domain:
        return op(a, b)
    if type(a) is Bot or type(b) is Bot:
        return BOT
    # The concrete operator is only defined on integers, so numeric top
    # covers every defined outcome even when an operand might be a pair.
    return domain.top()


def abs_add(a: AbsValue, b: AbsValue, domain: NumericDomain) -> AbsValue:
    return _binary_arith(a, b, domain, domain.add)


def abs_mul(a: AbsValue, b: AbsValue, domain: NumericDomain) -> AbsValue:
    return _binary_arith(a, b, domain, domain.mul)


def abs_eq(a: AbsValue, b: AbsValue, domain: NumericDomain) -> AbsValue:
    return _binary_arith(a, b, domain, domain.eq)


def filter_nonzero(pred: AbsValue, v: AbsValue) -> AbsValue:
    """Keep ``v`` if the predicate may be nonzero, else Bot."""
    t = type(pred)
    if t in _CARRIERS:
        return v if pred.may_be_nonzero() else BOT
    # Top keeps ``v``; Bot and a pair (on which the concrete conditional
    # is stuck) give Bot.
    return v if t is Top else BOT


def filter_zero(pred: AbsValue, v: AbsValue) -> AbsValue:
    """Keep ``v`` if the predicate may be zero, else Bot."""
    t = type(pred)
    if t in _CARRIERS:
        return v if pred.may_be_zero() else BOT
    return v if t is Top else BOT


def abs_proj(a: AbsValue, first: bool) -> AbsValue:
    """Abstract first (or second) projection; numbers project to Bot
    (stuck concretely)."""
    t = type(a)
    if t is APair:
        return a.fst if first else a.snd
    if t is Top:
        return TOP
    if t is Bot or t in _CARRIERS:
        return BOT
    raise TypeError(f"not an abstract value: {a!r}")


def abs_proj_path(a: AbsValue, path: tuple[bool, ...]) -> AbsValue:
    """``abs_proj`` applied along ``path``, innermost projection first
    (True for first), in one walk: Top stays Top and a number or Bot
    projects to Bot, whatever levels remain."""
    for first in path:
        if type(a) is not APair:
            t = type(a)
            if t is Top:
                return TOP
            if t is Bot or t in _CARRIERS:
                return BOT
            raise TypeError(f"not an abstract value: {a!r}")
        a = a.fst if first else a.snd
    return a


# ---------------------------------------------------------------------------
# Bridges to meta-language values
# ---------------------------------------------------------------------------


def met_value_to_abs(v: MetValue) -> AbsValue:
    """Read an abstract result out of a meta-language value.

    Abstract results are either opaque abstract values or tuples thereof
    (the abstract interpreter builds pairs with the concrete tuple
    constructor).
    """
    t = type(v)
    if t is VAbs:
        return v.value
    if t is VTuple:
        return make_pair(met_value_to_abs(v.fst), met_value_to_abs(v.snd))
    raise StuckError(f"not an abstract result: {v!r}")


def eta_met_value(v: MetValue, domain: NumericDomain) -> AbsValue:
    """Abstract a meta-language value structurally.

    Integers and tuples abstract pointwise; already-abstract values pass
    through unchanged, so mixed concrete/abstract tuples work too.
    """
    t = type(v)
    if t is VInt:
        return domain.eta_int(v.value)
    if t is VTuple:
        return make_pair(eta_met_value(v.fst, domain), eta_met_value(v.snd, domain))
    if t is VAbs:
        return v.value
    raise StuckError(f"cannot abstract {v!r}")


# ---------------------------------------------------------------------------
# Textual forms (CLI input/output)
# ---------------------------------------------------------------------------


def format_abs(a: AbsValue) -> str:
    return str(a)


def parse_abs(text: str, domain: NumericDomain) -> AbsValue:
    """Parse the textual form: ``bot``, ``top``, ``[lo,hi]``, ``{-,0,+}``
    subsets, and pairs ``(a, b)``."""
    text = text.strip()
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_value() -> AbsValue:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ParseError("unexpected end of abstract value")
        if text.startswith("bot", pos):
            pos += 3
            return BOT
        if text.startswith("top", pos):
            pos += 3
            return TOP
        c = text[pos]
        if c == "(":
            pos += 1
            first = parse_value()
            skip_ws()
            if pos >= len(text) or text[pos] != ",":
                raise ParseError("expected ',' in abstract pair")
            pos += 1
            second = parse_value()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("expected ')' to close abstract pair")
            pos += 1
            return make_pair(first, second)
        carrier = next((d for d in DOMAINS.values() if c == d.delimiters[0]), None)
        if carrier is None:
            raise ParseError(f"unexpected character {c!r} in abstract value")
        if carrier is not domain:
            raise ParseError(f"{carrier.name} literal not valid in domain {domain.name!r}")
        end = text.find(carrier.delimiters[1], pos)
        if end < 0:
            raise ParseError(f"expected {carrier.delimiters[1]!r} to close {carrier.name} literal")
        body = text[pos + 1 : end]
        pos = end + 1
        return carrier.parse(body)

    try:
        result = parse_value()
    except RecursionError:
        raise ParseError("input nested too deeply") from None
    skip_ws()
    if pos != len(text):
        raise ParseError(f"trailing input in abstract value: {text[pos:]!r}")
    return result


# ---------------------------------------------------------------------------
# Concretization sampling (test harness support)
# ---------------------------------------------------------------------------


def sample_member(a: AbsValue, rng: random.Random, magnitude: int = 1000) -> SrcValue | None:
    """Draw some concrete member of ``a``, or None when ``a`` is Bot."""
    match a:
        case Bot():
            return None
        case Top():
            return random_src_value(rng, 2, magnitude)
        case SignSet() | Interval():
            return SInt(a.sample(rng, magnitude))
        case APair(fst, snd):
            left = sample_member(fst, rng, magnitude)
            right = sample_member(snd, rng, magnitude)
            assert left is not None and right is not None
            return SPair(left, right)
    raise TypeError(f"not an abstract value: {a!r}")
