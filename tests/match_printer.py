"""The meta-language printer with one structural ``match`` per walker: the
differential oracle.

This is the printer ``retargeter.met.printer`` had before each walker
dispatched on the node's class through a table, kept verbatim.
``tests/test_met_printer_oracle.py`` compares the two on printed text,
pattern text, node censuses and the error for a non-node.

``print_met`` emits the normative concrete syntax: parsing its output
yields an AST equal to the input.  Parentheses are driven by operator
precedence; additionally a ``match`` that ends a non-final branch body
is parenthesized, since an unparenthesized one would capture the next
branch of the enclosing match.
"""

from __future__ import annotations

from collections import Counter

from retargeter.met.syntax import (
    App,
    Construct,
    IntLit,
    Lambda,
    Let,
    LetRecFun,
    Match,
    MetExpr,
    PConstruct,
    PInt,
    PTuple,
    PVar,
    PWild,
    Pattern,
    Prim,
    PrimOp,
    Proj1,
    Proj2,
    Tuple,
    Var,
)

_OPEN, _CMP, _ADD, _MUL, _PROJ, _APP, _ATOM = range(7)


def _level(e: MetExpr) -> int:
    match e:
        case Let() | LetRecFun() | Lambda() | Match():
            return _OPEN
        case Prim(op, _) if op is PrimOp.EQ:
            return _CMP
        case Prim(op, _) if op is PrimOp.ADD:
            return _ADD
        case Prim(op, _) if op is PrimOp.MUL:
            return _MUL
        case Proj1() | Proj2():
            return _PROJ
        case App():
            return _APP
        case _:
            return _ATOM


def _absorbs_bar(e: MetExpr) -> bool:
    """True when the right edge of ``e`` would capture a following '|'."""
    match e:
        case Match():
            return True
        case Let(_, _, body) | LetRecFun(_, _, _, body) | Lambda(_, body):
            return _absorbs_bar(body)
        case _:
            return False


def _show(e: MetExpr, ctx: int) -> str:
    text = _show_bare(e)
    if _level(e) < ctx:
        return f"({text})"
    return text


def _show_app_operand(e: MetExpr, ctx: int) -> str:
    # A bare nullary constructor inside an application chain could be
    # followed by a '('-initial atom and reparse as a constructor with
    # arguments; parenthesizing removes the ambiguity.
    if isinstance(e, Construct) and not e.args:
        return f"({e.tag})"
    return _show(e, ctx)


def _show_bare(e: MetExpr) -> str:
    match e:
        case Var(name):
            return name
        case IntLit(value):
            return str(value)
        case Tuple(fst, snd):
            return f"({_show(fst, _OPEN)}, {_show(snd, _OPEN)})"
        case Proj1(arg):
            return f"fst {_show(arg, _PROJ)}"
        case Proj2(arg):
            return f"snd {_show(arg, _PROJ)}"
        case Construct(tag, args):
            if not args:
                return tag
            return f"{tag}({', '.join(_show(a, _OPEN) for a in args)})"
        case Match(scrutinee, branches):
            parts = [f"match {_show(scrutinee, _CMP)} with"]
            last = len(branches) - 1
            for i, (pat, body) in enumerate(branches):
                shown = _show(body, _OPEN)
                if i != last and _absorbs_bar(body):
                    shown = f"({shown})"
                parts.append(f"| {print_pattern(pat)} -> {shown}")
            return " ".join(parts)
        case Let(name, bound, body):
            return f"let {name} = {_show(bound, _OPEN)} in {_show(body, _OPEN)}"
        case LetRecFun(fname, param, fbody, body):
            return f"let rec {fname} {param} = {_show(fbody, _OPEN)} in {_show(body, _OPEN)}"
        case Lambda(param, body):
            return f"fun {param} -> {_show(body, _OPEN)}"
        case App(fun, arg):
            return f"{_show_app_operand(fun, _APP)} {_show_app_operand(arg, _ATOM)}"
        case Prim(op, args):
            if op is PrimOp.EQ:
                # Comparison is non-associative: both sides need parens
                # around any nested comparison.
                return f"{_show(args[0], _ADD)} = {_show(args[1], _ADD)}"
            if op is PrimOp.ADD:
                return f"{_show(args[0], _ADD)} + {_show(args[1], _MUL)}"
            if op is PrimOp.MUL:
                return f"{_show(args[0], _MUL)} * {_show(args[1], _PROJ)}"
            return f"{op.value}({', '.join(_show(a, _OPEN) for a in args)})"
    raise TypeError(f"not a meta-language expression: {e!r}")


def print_met(e: MetExpr) -> str:
    """Render ``e`` in concrete syntax; reparses to an equal AST."""
    return _show(e, _OPEN)


def print_pattern(pat: Pattern) -> str:
    match pat:
        case PVar(name):
            return name
        case PWild():
            return "_"
        case PInt(value):
            return str(value)
        case PTuple(fst, snd):
            return f"({print_pattern(fst)}, {print_pattern(snd)})"
        case PConstruct(tag, args):
            if not args:
                return tag
            return f"{tag}({', '.join(print_pattern(a) for a in args)})"
    raise TypeError(f"not a pattern: {pat!r}")


def count_nodes(e: MetExpr) -> dict[str, int]:
    """Census of AST node kinds and primitive operators.

    Keys are node class names (``Match``, ``App``, ...) plus primitive
    operator names (``AADD``, ``ETA``, ...); absent keys mean zero.
    """
    counts: Counter[str] = Counter()

    def walk(node: MetExpr) -> None:
        counts[type(node).__name__] += 1
        match node:
            case Tuple(a, b) | App(a, b):
                walk(a)
                walk(b)
            case Proj1(a) | Proj2(a) | Lambda(_, a):
                walk(a)
            case Construct(_, args):
                for a in args:
                    walk(a)
            case Match(scrutinee, branches):
                walk(scrutinee)
                for _, body in branches:
                    walk(body)
            case Let(_, bound, body):
                walk(bound)
                walk(body)
            case LetRecFun(_, _, fbody, body):
                walk(fbody)
                walk(body)
            case Prim(op, args):
                counts[op.name] += 1
                for a in args:
                    walk(a)

    walk(e)
    return dict(counts)
