"""Structured abstract values over pluggable numeric domains.

An abstract value mirrors the shape of source-language values: ``Bot``
(no concrete value), ``Num`` (an abstraction of a set of integers),
``APair`` (componentwise abstraction of pairs), and ``Top`` (anything,
including shape mismatches).  The numeric layer is parametric: a
numeric domain is its carrier class, and two ship, sign sets
(:class:`SignSet`) and intervals (:class:`Interval`).  Everything the
rest of the package needs from a domain (its name, ``eta_int``, ``top``,
the lattice and arithmetic operators, its literal syntax and sampling)
is a method or class attribute of the carrier.

Concretization is exposed as a membership test (:func:`contains`) rather
than as a set constructor, which is what the soundness harnesses need.
"""

from __future__ import annotations

import enum
import itertools
import operator
import random
from dataclasses import dataclass
from typing import ClassVar

from .errors import ParseError, StuckError
from .met.syntax import MetValue, VAbs, VInt, VTuple
from .srclang import SInt, SPair, SrcValue, random_src_value


# ---------------------------------------------------------------------------
# Numeric abstractions
# ---------------------------------------------------------------------------


class Sign(enum.Enum):
    NEG = "-"
    ZERO = "0"
    POS = "+"


def _sign_of(n: int) -> Sign:
    if n < 0:
        return Sign.NEG
    if n == 0:
        return Sign.ZERO
    return Sign.POS


@dataclass(frozen=True)
class SignSet:
    """A nonempty subset of {negative, zero, positive}."""

    name: ClassVar[str] = "sign"
    delimiters: ClassVar[str] = "{}"

    signs: frozenset[Sign]

    def __post_init__(self):
        if not self.signs:
            raise ValueError("empty sign set; use Bot at the structured level")

    @classmethod
    def of(cls, *signs: Sign) -> "SignSet":
        return cls(frozenset(signs))

    @classmethod
    def eta_int(cls, n: int) -> "SignSet":
        return cls.of(_sign_of(n))

    @classmethod
    def top(cls) -> "SignSet":
        return cls.of(Sign.NEG, Sign.ZERO, Sign.POS)

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
        return SignSet(self.signs | other.signs)

    def contains(self, n: int) -> bool:
        return _sign_of(n) in self.signs

    def add(self, other: "SignSet") -> "SignSet":
        return _SIGN_ADD_TABLE[self.signs, other.signs]

    def mul(self, other: "SignSet") -> "SignSet":
        return _SIGN_MUL_TABLE[self.signs, other.signs]

    def eq(self, other: "SignSet") -> "SignSet":
        return _SIGN_EQ_TABLE[self.signs, other.signs]

    def may_be_nonzero(self) -> bool:
        return bool(self.signs & {Sign.NEG, Sign.POS})

    def may_be_zero(self) -> bool:
        return Sign.ZERO in self.signs

    def __str__(self) -> str:
        order = [Sign.NEG, Sign.ZERO, Sign.POS]
        return "{" + ",".join(s.value for s in order if s in self.signs) + "}"


def _parse_bound(s: str, sign: int) -> int | None:
    s = s.strip()
    if (sign < 0 and s == "-inf") or (sign > 0 and s in ("+inf", "inf")):
        return None
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"malformed interval bound {s!r}") from None


@dataclass(frozen=True)
class Interval:
    """Integer interval; ``None`` bounds mean unbounded on that side."""

    name: ClassVar[str] = "interval"
    delimiters: ClassVar[str] = "[]"

    lo: int | None
    hi: int | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo},{self.hi}]; use Bot")

    @classmethod
    def eta_int(cls, n: int) -> "Interval":
        return cls(n, n)

    @classmethod
    def top(cls) -> "Interval":
        return cls(None, None)

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
        return Interval(lo, hi)

    def contains(self, n: int) -> bool:
        if self.lo is not None and n < self.lo:
            return False
        if self.hi is not None and n > self.hi:
            return False
        return True

    def add(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def mul(self, other: "Interval") -> "Interval":
        def ext(bound: int | None, sign: int) -> float | int:
            return sign * float("inf") if bound is None else bound

        def pmul(a: float | int, b: float | int) -> float | int:
            if a == 0 or b == 0:
                return 0
            if isinstance(a, float) or isinstance(b, float):
                positive = (a > 0) == (b > 0)
                return float("inf") if positive else float("-inf")
            return a * b

        bounds_a = (ext(self.lo, -1), ext(self.hi, +1))
        bounds_b = (ext(other.lo, -1), ext(other.hi, +1))
        products = [pmul(a, b) for a in bounds_a for b in bounds_b]
        lo, hi = min(products), max(products)
        return Interval(
            None if isinstance(lo, float) else lo,
            None if isinstance(hi, float) else hi,
        )

    def eq(self, other: "Interval") -> "Interval":
        if self.is_singleton() and self == other:
            return Interval(1, 1)
        if self.disjoint_from(other):
            return Interval(0, 0)
        return Interval(0, 1)

    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

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


NumAbs = SignSet | Interval


# Each sign operator is its best transformer alpha . op . gamma (Cousot &
# Cousot 1979), tabulated at import for every pair of nonempty sign sets.
# Two members per sign give the same result signs as all of them: opposite
# signs add up to each sign (-2+1, -1+1, -1+2), the sign of a product
# depends only on the signs of its factors, and two members of NEG or of
# POS can be equal or not, while two members of ZERO are always equal.
_REPRESENTATIVES = {Sign.NEG: (-2, -1), Sign.ZERO: (0,), Sign.POS: (1, 2)}


def _tabulate(op) -> dict[tuple[frozenset[Sign], frozenset[Sign]], SignSet]:
    sets = [frozenset(c) for r in range(1, 4) for c in itertools.combinations(Sign, r)]
    return {(a, b): SignSet(frozenset(_sign_of(op(x, y))
                                      for s in a for x in _REPRESENTATIVES[s]
                                      for t in b for y in _REPRESENTATIVES[t]))
            for a in sets for b in sets}


_SIGN_ADD_TABLE = _tabulate(operator.add)
_SIGN_MUL_TABLE = _tabulate(operator.mul)
_SIGN_EQ_TABLE = _tabulate(lambda x, y: int(x == y))

# A numeric domain is its carrier class.
NumericDomain = type[SignSet] | type[Interval]
SIGN, INTERVAL = SignSet, Interval
DOMAINS = {d.name: d for d in (SIGN, INTERVAL)}


def get_domain(name: str) -> NumericDomain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise ValueError(f"unknown domain {name!r}; expected one of {sorted(DOMAINS)}") from None


# ---------------------------------------------------------------------------
# Structured abstract values
# ---------------------------------------------------------------------------


class AbsValue:
    __slots__ = ()


@dataclass(frozen=True)
class Bot(AbsValue):
    def __str__(self) -> str:
        return "bot"


@dataclass(frozen=True)
class Top(AbsValue):
    def __str__(self) -> str:
        return "top"


@dataclass(frozen=True)
class Num(AbsValue):
    num: NumAbs

    def __str__(self) -> str:
        return str(self.num)


@dataclass(frozen=True)
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


def make_pair(a: AbsValue, b: AbsValue) -> AbsValue:
    """Pair constructor normalizing Bot components to Bot."""
    if isinstance(a, Bot) or isinstance(b, Bot):
        return BOT
    return APair(a, b)


def contains(a: AbsValue, v: SrcValue) -> bool:
    """Concretization membership: is ``v`` described by ``a``?"""
    match a:
        case Bot():
            return False
        case Top():
            return True
        case Num(num):
            return isinstance(v, SInt) and num.contains(v.value)
        case APair(fst, snd):
            return isinstance(v, SPair) and contains(fst, v.fst) and contains(snd, v.snd)
    raise TypeError(f"not an abstract value: {a!r}")


def leq(a: AbsValue, b: AbsValue) -> bool:
    """Approximation order; Bot is least and Top greatest."""
    match (a, b):
        case (Bot(), _) | (_, Top()):
            return True
        case (Top(), _) | (_, Bot()):
            return False
        case (Num(x), Num(y)):
            return type(x) is type(y) and x.leq(y)
        case (APair(a1, a2), APair(b1, b2)):
            return leq(a1, b1) and leq(a2, b2)
        case _:
            return False


def join(a: AbsValue, b: AbsValue) -> AbsValue:
    """Least upper bound within the implemented lattice."""
    match (a, b):
        case (Bot(), _):
            return b
        case (_, Bot()):
            return a
        case (Top(), _) | (_, Top()):
            return TOP
        case (Num(x), Num(y)) if type(x) is type(y):
            return Num(x.join(y))
        case (APair(a1, a2), APair(b1, b2)):
            return make_pair(join(a1, b1), join(a2, b2))
        case _:
            # Mismatched shapes are only related through Top.
            return TOP


def _binary_arith(a: AbsValue, b: AbsValue, domain: NumericDomain, op) -> AbsValue:
    if isinstance(a, Bot) or isinstance(b, Bot):
        return BOT
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(op(a.num, b.num))
    # The concrete operator is only defined on integers, so numeric top
    # covers every defined outcome even when an operand might be a pair.
    return Num(domain.top())


def abs_add(a: AbsValue, b: AbsValue, domain: NumericDomain) -> AbsValue:
    return _binary_arith(a, b, domain, lambda x, y: x.add(y))


def abs_mul(a: AbsValue, b: AbsValue, domain: NumericDomain) -> AbsValue:
    return _binary_arith(a, b, domain, lambda x, y: x.mul(y))


def abs_eq(a: AbsValue, b: AbsValue, domain: NumericDomain) -> AbsValue:
    return _binary_arith(a, b, domain, lambda x, y: x.eq(y))


def filter_nonzero(pred: AbsValue, v: AbsValue) -> AbsValue:
    """Keep ``v`` if the predicate may be nonzero, else Bot."""
    match pred:
        case Top():
            return v
        case Num(num) if num.may_be_nonzero():
            return v
        case _:
            # Bot, a definitely-zero number, or a pair (on which the
            # concrete conditional is stuck).
            return BOT


def filter_zero(pred: AbsValue, v: AbsValue) -> AbsValue:
    """Keep ``v`` if the predicate may be zero, else Bot."""
    match pred:
        case Top():
            return v
        case Num(num) if num.may_be_zero():
            return v
        case _:
            return BOT


def abs_proj(a: AbsValue, first: bool) -> AbsValue:
    """Abstract first (or second) projection; numbers project to Bot
    (stuck concretely)."""
    match a:
        case Bot() | Num():
            return BOT
        case Top():
            return TOP
        case APair(fst, snd):
            return fst if first else snd
    raise TypeError(f"not an abstract value: {a!r}")


# ---------------------------------------------------------------------------
# Bridges to meta-language values
# ---------------------------------------------------------------------------


def met_value_to_abs(v: MetValue) -> AbsValue:
    """Read an abstract result out of a meta-language value.

    Abstract results are either opaque abstract values or tuples thereof
    (the abstract interpreter builds pairs with the concrete tuple
    constructor).
    """
    match v:
        case VAbs(a):
            return a
        case VTuple(a, b):
            return make_pair(met_value_to_abs(a), met_value_to_abs(b))
    raise StuckError(f"not an abstract result: {v!r}")


def eta_met_value(v: MetValue, domain: NumericDomain) -> AbsValue:
    """Abstract a meta-language value structurally.

    Integers and tuples abstract pointwise; already-abstract values pass
    through unchanged, so mixed concrete/abstract tuples work too.
    """
    match v:
        case VInt(n):
            return Num(domain.eta_int(n))
        case VTuple(a, b):
            return make_pair(eta_met_value(a, domain), eta_met_value(b, domain))
        case VAbs(a):
            return a
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
        return Num(carrier.parse(body))

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
        case Num(num):
            return SInt(num.sample(rng, magnitude))
        case APair(fst, snd):
            left = sample_member(fst, rng, magnitude)
            right = sample_member(snd, rng, magnitude)
            assert left is not None and right is not None
            return SPair(left, right)
    raise TypeError(f"not an abstract value: {a!r}")
