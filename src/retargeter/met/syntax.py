"""Abstract syntax of the meta-language.

The meta-language is a small call-by-value functional language: integers,
pairs, algebraic constructors, pattern matching, ``let``/``let rec``,
lambdas, and a fixed set of primitive operators.  The primitives come in
two flavours: concrete integer arithmetic (``+ * =``) and operators over
an abstract value domain (extraction, abstract arithmetic, join, and the
two branch filters).

Expressions, patterns and values are immutable; structural equality is
the notion of AST equality used throughout the package.  They, and every
other immutable node and value of the package, are declared with
:func:`record`.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, fields
from typing import TYPE_CHECKING, Mapping, TypeVar

from ..errors import FuelExhausted

if TYPE_CHECKING:
    from ..domains import AbsValue

T = TypeVar("T")


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
# Records
# ---------------------------------------------------------------------------


def record(cls: type[T]) -> type[T]:
    """``cls`` as a frozen, slotted dataclass with a cheap constructor.

    Field order, defaults, keyword arguments, ``__eq__``, ``__hash__``,
    ``__repr__`` and ``__match_args__`` are those of
    ``dataclass(frozen=True)``, and assigning a field raises
    ``FrozenInstanceError``.  Instances have no ``__dict__``, and
    ``__init__`` stores each field through its slot's ``__set__`` rather
    than through ``object.__setattr__`` by name, which halves the cost of
    building a record; it then runs ``__post_init__`` where the class has
    one.  Fields take plain defaults only.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    namespace: dict[str, object] = {}
    params, lines = [], []
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init:
            raise TypeError(f"record field {cls.__name__}.{f.name} needs a plain default")
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        lines.append(f"    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(lines or ["    pass"])
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class MetExpr:
    """Base class of meta-language expressions.

    The two slots cache code compiled from a node: ``_compiled`` holds
    the evaluator's, by domain (:func:`.interp.compiled`), and ``_pe_code``
    the specializer's.  They are set with ``object.__setattr__`` on first
    use and take no part in equality, hashing or ``repr``."""

    __slots__ = ("_compiled", "_pe_code")


@record
class Var(MetExpr):
    name: str


@record
class IntLit(MetExpr):
    value: int


@record
class Tuple(MetExpr):
    fst: MetExpr
    snd: MetExpr


@record
class Proj1(MetExpr):
    arg: MetExpr


@record
class Proj2(MetExpr):
    arg: MetExpr


@record
class Construct(MetExpr):
    tag: str
    args: tuple[MetExpr, ...]


@record
class Match(MetExpr):
    scrutinee: MetExpr
    branches: tuple[tuple["Pattern", MetExpr], ...]


@record
class Let(MetExpr):
    name: str
    bound: MetExpr
    body: MetExpr


@record
class LetRecFun(MetExpr):
    fun_name: str
    param: str
    fun_body: MetExpr
    body: MetExpr


@record
class Lambda(MetExpr):
    param: str
    body: MetExpr


@record
class App(MetExpr):
    fun: MetExpr
    arg: MetExpr


@record
class Prim(MetExpr):
    op: PrimOp
    args: tuple[MetExpr, ...]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


class Pattern:
    """Base class of patterns.  ``_binder`` caches the pattern's compiled
    binder (:func:`.interp.binder`), as ``MetExpr``'s slots cache code."""

    __slots__ = ("_binder",)


@record
class PVar(Pattern):
    name: str


@record
class PWild(Pattern):
    pass


@record
class PInt(Pattern):
    value: int


@record
class PTuple(Pattern):
    fst: Pattern
    snd: Pattern


@record
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


@record
class VInt(MetValue):
    value: int


@record
class VTuple(MetValue):
    fst: MetValue
    snd: MetValue


@record
class VConstruct(MetValue):
    tag: str
    args: tuple[MetValue, ...]


@record
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


@record
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

