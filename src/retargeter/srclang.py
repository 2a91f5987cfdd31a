"""The source language: loop-free expressions over a single input ``x``.

Values are integers and nested pairs.  Programs are s-expressions over
the forms ``(+ e e) (* e e) (= e e) (pair e e) (fst e) (snd e)
(if e e e)`` plus the atoms ``x`` and integer literals.

This module also provides the embedding of source programs and values
into meta-language data, which is what the abstract interpreter and the
partial evaluator consume, and seeded random generators used by the
property harnesses.
"""

from __future__ import annotations

import random
import re
from dataclasses import fields

from .errors import ParseError, StuckError
from .met.syntax import MetValue, VConstruct, VInt, VTuple, record


class SrcExpr:
    __slots__ = ()


@record
class X(SrcExpr):
    """The single input variable."""


@record
class Num(SrcExpr):
    value: int


@record
class Add(SrcExpr):
    lhs: SrcExpr
    rhs: SrcExpr


@record
class Mul(SrcExpr):
    lhs: SrcExpr
    rhs: SrcExpr


@record
class Eq(SrcExpr):
    lhs: SrcExpr
    rhs: SrcExpr


@record
class Pair(SrcExpr):
    fst: SrcExpr
    snd: SrcExpr


@record
class Fst(SrcExpr):
    arg: SrcExpr


@record
class Snd(SrcExpr):
    arg: SrcExpr


@record
class If(SrcExpr):
    pred: SrcExpr
    then: SrcExpr
    orelse: SrcExpr


class SrcValue:
    __slots__ = ()


@record
class SInt(SrcValue):
    value: int


@record
class SPair(SrcValue):
    fst: SrcValue
    snd: SrcValue


# ---------------------------------------------------------------------------
# The constructor table
# ---------------------------------------------------------------------------

# The surface keyword of each compound form.  With the atoms ``X`` and
# ``Num`` this is the whole list of constructors: a class's name is its tag
# in the embedding into meta-language data, and its dataclass fields are its
# arguments, in order.
_KEYWORDS: dict[type[SrcExpr], str] = {
    Add: "+", Mul: "*", Eq: "=", Pair: "pair", Fst: "fst", Snd: "snd", If: "if",
}

_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in (X, Num, *_KEYWORDS)}
_FORMS = {keyword: cls for cls, keyword in _KEYWORDS.items()}

# Constructor signature of the embedded source-language AST: tag -> arity.
# The meta-language parser checks constructor applications against this.
SRC_SIGNATURE: dict[str, int] = {cls.__name__: len(names) for cls, names in _FIELDS.items()}


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------


_INT_LITERAL = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """An integer literal, as every front end writes one: ASCII digits with
    an optional leading minus.  Python's ``int`` alone would also take
    other scripts' digits, ``_`` separators, a ``+`` sign and surrounding
    white space; here each is a ``ValueError``.  A well-formed literal
    with more digits than ``int`` converts is a ``ParseError``."""
    if _INT_LITERAL.fullmatch(text) is None:
        raise ValueError(f"invalid integer literal {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal too long ({len(text)} characters)") from None


def _tokenize_sexpr(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_src(text: str) -> SrcExpr:
    """Parse one s-expression into a source-language AST."""
    tokens = _tokenize_sexpr(text)
    pos = 0

    def parse() -> SrcExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens):
                raise ParseError("unexpected end of input after '('")
            head = tokens[pos]
            pos += 1
            ctor = _FORMS.get(head)
            if ctor is None:
                raise ParseError(f"unknown form {head!r}")
            # A loop, not a comprehension, so that each level of nesting
            # takes one frame of the host stack, as in print_src.
            args = []
            for _ in _FIELDS[ctor]:
                args.append(parse())
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ParseError(f"expected ')' to close {head!r}")
            pos += 1
            return ctor(*args)
        if tok == ")":
            raise ParseError("unexpected ')'")
        if tok == "x":
            return X()
        try:
            return Num(parse_int(tok))
        except ValueError:
            raise ParseError(f"unexpected token {tok!r}") from None

    try:
        expr = parse()
    except RecursionError:
        raise ParseError("input nested too deeply") from None
    if pos != len(tokens):
        raise ParseError(f"trailing input starting at {tokens[pos]!r}")
    return expr


def print_src(e: SrcExpr) -> str:
    match e:
        case X():
            return "x"
        case Num(n):
            return str(n)
    keyword = _KEYWORDS.get(type(e))
    if keyword is None:
        raise TypeError(f"not a source expression: {e!r}")
    # A loop, not a generator, so that each level of the tree takes one
    # frame of the host stack (likewise in embed_src_expr).
    parts = [keyword]
    for name in _FIELDS[type(e)]:
        parts.append(print_src(getattr(e, name)))
    return "(" + " ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Concrete semantics
# ---------------------------------------------------------------------------


def eval_src(e: SrcExpr, input_value: SrcValue) -> SrcValue:
    """Evaluate ``e`` with ``x`` bound to ``input_value``.

    Arithmetic and comparison require integers, projections require
    pairs, and the conditional requires an integer predicate (taken as
    true when nonzero); anything else raises :class:`StuckError`.
    """

    def ev(node: SrcExpr) -> SrcValue:
        match node:
            case X():
                return input_value
            case Num(n):
                return SInt(n)
            case Add(a, b) | Mul(a, b) | Eq(a, b):
                va, vb = ev(a), ev(b)
                if not (isinstance(va, SInt) and isinstance(vb, SInt)):
                    raise StuckError("arithmetic on a non-integer")
                if isinstance(node, Add):
                    return SInt(va.value + vb.value)
                if isinstance(node, Mul):
                    return SInt(va.value * vb.value)
                return SInt(1 if va.value == vb.value else 0)
            case Pair(a, b):
                return SPair(ev(a), ev(b))
            case Fst(a):
                v = ev(a)
                if not isinstance(v, SPair):
                    raise StuckError("fst of a non-pair")
                return v.fst
            case Snd(a):
                v = ev(a)
                if not isinstance(v, SPair):
                    raise StuckError("snd of a non-pair")
                return v.snd
            case If(p, t, o):
                vp = ev(p)
                if not isinstance(vp, SInt):
                    raise StuckError("conditional on a non-integer")
                return ev(t) if vp.value != 0 else ev(o)
        raise TypeError(f"not a source expression: {node!r}")

    return ev(e)


# ---------------------------------------------------------------------------
# Embedding into meta-language data
# ---------------------------------------------------------------------------


def embed_src_expr(e: SrcExpr) -> MetValue:
    """Embed a source-language AST as a meta-language constructor tree."""
    cls = type(e)
    if cls is Num:
        return VConstruct("Num", (VInt(e.value),))
    names = _FIELDS.get(cls)
    if names is None:
        raise TypeError(f"not a source expression: {e!r}")
    args = []
    for name in names:
        args.append(embed_src_expr(getattr(e, name)))
    return VConstruct(cls.__name__, tuple(args))


def embed_src_value(v: SrcValue) -> MetValue:
    cls = type(v)
    if cls is SInt:
        return VInt(v.value)
    if cls is SPair:
        return VTuple(embed_src_value(v.fst), embed_src_value(v.snd))
    raise TypeError(f"not a source value: {v!r}")


# ---------------------------------------------------------------------------
# Random generation for property harnesses
# ---------------------------------------------------------------------------

# A value shape is "int" or ("pair", left_shape, right_shape).
Shape = str | tuple


def random_src_value(rng: random.Random, depth_bound: int, magnitude_bound: int) -> SrcValue:
    if depth_bound <= 0 or rng.random() < 0.5:
        return SInt(rng.randint(-magnitude_bound, magnitude_bound))
    return SPair(
        random_src_value(rng, depth_bound - 1, magnitude_bound),
        random_src_value(rng, depth_bound - 1, magnitude_bound),
    )


def shape_of(v: SrcValue) -> Shape:
    if isinstance(v, SInt):
        return "int"
    assert isinstance(v, SPair)
    return ("pair", shape_of(v.fst), shape_of(v.snd))


def random_src_expr(rng: random.Random, input_shape: Shape, depth: int,
                    magnitude_bound: int = 100, want: Shape = "int") -> SrcExpr:
    """Random program producing a value of shape ``want``.

    The generator tracks int-versus-pair shapes so that evaluation on any
    input of ``input_shape`` never gets stuck.
    """
    if want == "int":
        choices = ["num"]
        if input_shape == "int":
            choices.append("x")
        if depth > 0:
            choices += ["add", "mul", "eq", "if", "proj"]
        kind = rng.choice(choices)
        if kind == "x":
            return X()
        if kind == "num":
            return Num(rng.randint(-magnitude_bound, magnitude_bound))
        if kind in ("add", "mul", "eq"):
            ctor = {"add": Add, "mul": Mul, "eq": Eq}[kind]
            return ctor(
                random_src_expr(rng, input_shape, depth - 1, magnitude_bound, "int"),
                random_src_expr(rng, input_shape, depth - 1, magnitude_bound, "int"),
            )
        if kind == "if":
            return If(
                random_src_expr(rng, input_shape, depth - 1, magnitude_bound, "int"),
                random_src_expr(rng, input_shape, depth - 1, magnitude_bound, "int"),
                random_src_expr(rng, input_shape, depth - 1, magnitude_bound, "int"),
            )
        # Project an int out of a freshly built pair.
        side = rng.random() < 0.5
        inner: Shape = ("pair", "int", "int")
        pair_expr = random_src_expr(rng, input_shape, depth - 1, magnitude_bound, inner)
        return Fst(pair_expr) if side else Snd(pair_expr)

    # want is a pair shape
    _, left, right = want
    choices = ["pair"]
    if input_shape == want:
        choices.append("x")
    if depth > 0:
        choices.append("if")
    kind = rng.choice(choices)
    if kind == "x":
        return X()
    if kind == "if":
        return If(
            random_src_expr(rng, input_shape, depth - 1, magnitude_bound, "int"),
            random_src_expr(rng, input_shape, depth - 1, magnitude_bound, want),
            random_src_expr(rng, input_shape, depth - 1, magnitude_bound, want),
        )
    return Pair(
        random_src_expr(rng, input_shape, max(depth - 1, 0), magnitude_bound, left),
        random_src_expr(rng, input_shape, max(depth - 1, 0), magnitude_bound, right),
    )
