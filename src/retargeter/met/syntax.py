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
from _thread import get_ident
from dataclasses import MISSING, Field, FrozenInstanceError, dataclass, fields
from inspect import formatannotation
from types import CodeType, FunctionType
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
    ``__repr__``, ``__match_args__``, ``__doc__``, ``__dataclass_params__``,
    copying and pickling are those of ``dataclass(frozen=True, slots=True)``,
    and assigning or deleting an attribute raises ``FrozenInstanceError``.
    Instances have no ``__dict__``, and ``__init__`` stores each field
    through its slot's ``__set__`` rather than through
    ``object.__setattr__`` by name, which halves the cost of building a
    record; it then runs ``__post_init__`` where the class has one.
    Fields take plain defaults only, and the class body defines none of
    the methods a record is given.

    A record is declared without compiling any source compiled before.
    ``dataclass`` is asked for no method, so it generates no source: it
    registers the fields and ``__match_args__`` and builds the slotted
    class.  ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` are
    compiled once per field signature, the field names and whether the
    class has ``__post_init__`` (23 signatures for the package's 46
    records), and each class makes its own functions from a copy of that
    code over a namespace of its slot setters; their bodies are those
    ``dataclass`` generates, so building, comparing and hashing cost what
    they did.  ``__setattr__``, ``__delattr__``, ``__getstate__`` and
    ``__setstate__`` are shared by every record.  A plain frozen dataclass
    compiles about seven functions per class, which took 31–41 ms of an
    80 ms cold import of the package; declared this way, the cold import
    takes about 58 ms.
    """
    for name in (*_METHODS, *_SHARED):
        if name in cls.__dict__:
            raise TypeError(f"record {cls.__name__} defines {name}")
    documented = bool(cls.__doc__)
    if not documented:
        cls.__doc__ = cls.__name__  # or ``dataclass`` calls inspect.signature(cls)
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    cls.__dataclass_params__ = _FROZEN_PARAMS
    fs = fields(cls)
    defaults = tuple(f.default for f in fs if f.default is not MISSING)
    namespace = {"__name__": cls.__module__, "_get_ident": get_ident, "_repr_running": set()}
    for k, f in enumerate(fs):
        if f.default_factory is not MISSING or not f.init:
            raise TypeError(f"record field {cls.__name__}.{f.name} needs a plain default")
        if f.default is MISSING and k >= len(fs) - len(defaults):
            raise TypeError(f"record field {cls.__name__}.{f.name} follows a field with a default")
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
    if not documented:
        cls.__doc__ = f"{cls.__name__}({', '.join(map(_describe, fs))})"
    for name, code in _methods(tuple(f.name for f in fs), hasattr(cls, "__post_init__")).items():
        # A copy of the code per class: the interpreter specializes each
        # code object's attribute and global loads to one class and one
        # namespace, so in code shared by several records they stay generic.
        method = FunctionType(code.replace(), namespace)
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__init__.__defaults__ = defaults or None
    for name, function in _SHARED.items():
        setattr(cls, name, function)
    return cls


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self):
    return [getattr(self, f.name) for f in fields(self)]


def _setstate(self, state):
    for f, value in zip(fields(self), state):
        object.__setattr__(self, f.name, value)


_SHARED = {"__setattr__": _frozen_setattr, "__delattr__": _frozen_delattr,
           "__getstate__": _getstate, "__setstate__": _setstate}

# The params of a plain ``dataclass(frozen=True, slots=True)``, which every
# record reports as its own.
_FROZEN_PARAMS = dataclass(frozen=True, slots=True)(type("Frozen", (), {})).__dataclass_params__

_METHODS = ("__init__", "__eq__", "__hash__", "__repr__")

# Code of the four methods of each field signature: field names, and
# whether the class has ``__post_init__``.
_CODE: dict[tuple[tuple[str, ...], bool], dict[str, CodeType]] = {}


def _methods(names: tuple[str, ...], post_init: bool) -> dict[str, CodeType]:
    """The code of a record's ``__init__``, ``__eq__``, ``__hash__`` and
    ``__repr__``: the bodies ``dataclass`` generates, but for ``__init__``,
    which stores through the slot setters ``_set_<field>``."""
    key = names, post_init
    if key not in _CODE:
        self_tuple = f"({''.join(f'self.{n},' for n in names)})"
        other_tuple = f"({''.join(f'other.{n},' for n in names)})"
        shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
        init = [f"    _set_{n}(self, {n})" for n in names]
        if post_init:
            init.append("    self.__post_init__()")
        source = "\n".join([
            f"def __init__(self{''.join(f', {n}' for n in names)}):",
            *(init or ["    pass"]),
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return {self_tuple}=={other_tuple}",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash({self_tuple})",
            "def __repr__(self):",
            "    key = id(self), _get_ident()",
            "    if key in _repr_running:",
            "        return '...'",
            "    _repr_running.add(key)",
            "    try:",
            f"        return self.__class__.__qualname__ + f\"({shown})\"",
            "    finally:",
            "        _repr_running.discard(key)",
        ])
        namespace: dict[str, object] = {}
        exec(source, namespace)
        _CODE[key] = {name: namespace[name].__code__ for name in _METHODS}
    return _CODE[key]


def _describe(f: Field) -> str:
    """A field as ``inspect.signature`` shows its parameter, which is how
    ``dataclass`` documents a class that has no docstring."""
    text = f"{f.name}: {formatannotation(f.type)}"
    return text if f.default is MISSING else f"{text} = {f.default!r}"


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

