"""Abstract syntax of the meta-language.

The meta-language is a small call-by-value functional language: integers,
pairs, algebraic constructors, pattern matching, ``let``/``let rec``,
lambdas, and a fixed set of primitive operators.  The primitives come in
two flavours: concrete integer arithmetic (``+ * =``) and operators over
an abstract value domain (extraction, abstract arithmetic, join, and the
two branch filters).

Expressions, patterns and values are immutable; structural equality is
the notion of AST equality used throughout the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..errors import FuelExhausted

if TYPE_CHECKING:
    from ..domains import AbsValue


class PrimOp(enum.Enum):
    """Primitive operators; the value is the surface spelling."""

    ADD = "+"
    MUL = "*"
    EQ = "="
    ETA = "eta"
    AADD = "aadd"
    AMUL = "amul"
    AEQ = "aeq"
    AJOIN = "ajoin"
    AFILTER_NE0 = "fne0"
    AFILTER_EQ0 = "feq0"

    @property
    def arity(self) -> int:
        return 1 if self is PrimOp.ETA else 2

    @property
    def is_abstract(self) -> bool:
        """True for operators that compute over abstract values."""
        return self not in (PrimOp.ADD, PrimOp.MUL, PrimOp.EQ)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class MetExpr:
    """Base class of meta-language expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(MetExpr):
    name: str


@dataclass(frozen=True)
class IntLit(MetExpr):
    value: int


@dataclass(frozen=True)
class Tuple(MetExpr):
    fst: MetExpr
    snd: MetExpr


@dataclass(frozen=True)
class Proj1(MetExpr):
    arg: MetExpr


@dataclass(frozen=True)
class Proj2(MetExpr):
    arg: MetExpr


@dataclass(frozen=True)
class Construct(MetExpr):
    tag: str
    args: tuple[MetExpr, ...]


@dataclass(frozen=True)
class Match(MetExpr):
    scrutinee: MetExpr
    branches: tuple[tuple["Pattern", MetExpr], ...]


@dataclass(frozen=True)
class Let(MetExpr):
    name: str
    bound: MetExpr
    body: MetExpr


@dataclass(frozen=True)
class LetRecFun(MetExpr):
    fun_name: str
    param: str
    fun_body: MetExpr
    body: MetExpr


@dataclass(frozen=True)
class Lambda(MetExpr):
    param: str
    body: MetExpr


@dataclass(frozen=True)
class App(MetExpr):
    fun: MetExpr
    arg: MetExpr


@dataclass(frozen=True)
class Prim(MetExpr):
    op: PrimOp
    args: tuple[MetExpr, ...]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


class Pattern:
    __slots__ = ()


@dataclass(frozen=True)
class PVar(Pattern):
    name: str


@dataclass(frozen=True)
class PWild(Pattern):
    pass


@dataclass(frozen=True)
class PInt(Pattern):
    value: int


@dataclass(frozen=True)
class PTuple(Pattern):
    fst: Pattern
    snd: Pattern


@dataclass(frozen=True)
class PConstruct(Pattern):
    tag: str
    args: tuple[Pattern, ...]


def pattern_vars(pat: Pattern) -> list[str]:
    """All variable names bound by ``pat``, in left-to-right order."""
    match pat:
        case PVar(name):
            return [name]
        case PWild() | PInt():
            return []
        case PTuple(a, b):
            return pattern_vars(a) + pattern_vars(b)
        case PConstruct(_, args):
            out: list[str] = []
            for a in args:
                out.extend(pattern_vars(a))
            return out
    raise TypeError(f"not a pattern: {pat!r}")


def is_linear(pat: Pattern) -> bool:
    names = pattern_vars(pat)
    return len(names) == len(set(names))


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class MetValue:
    __slots__ = ()


@dataclass(frozen=True)
class VInt(MetValue):
    value: int


@dataclass(frozen=True)
class VTuple(MetValue):
    fst: MetValue
    snd: MetValue


@dataclass(frozen=True)
class VConstruct(MetValue):
    tag: str
    args: tuple[MetValue, ...]


@dataclass(frozen=True)
class VClosure(MetValue):
    """A function value.

    ``self_name`` is set for ``let rec``-bound functions; applying the
    closure re-binds that name to the closure itself, which keeps the
    environment free of cycles.
    """

    param: str
    body: MetExpr
    env: Mapping[str, MetValue]
    self_name: str | None = None


@dataclass(frozen=True)
class VAbs(MetValue):
    """An opaque abstract value, produced by the abstract primitives."""

    value: "AbsValue"


# ---------------------------------------------------------------------------
# Evaluation budget
# ---------------------------------------------------------------------------

DEFAULT_FUEL = 1_000_000


@dataclass
class EvalBudget:
    """Step budget for the evaluator.

    One step is one evaluation rule application.  The counter makes
    non-termination observable and doubles as the cost metric reported
    by the benchmarking harness.
    """

    fuel: int = DEFAULT_FUEL
    steps_used: int = 0

    def tick(self) -> None:
        if self.steps_used >= self.fuel:
            raise FuelExhausted(f"evaluation exceeded {self.fuel} steps")
        self.steps_used += 1

