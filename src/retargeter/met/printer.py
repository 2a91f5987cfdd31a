"""Printing and node counting for meta-language ASTs.

``print_met`` emits the normative concrete syntax: parsing its output
yields an AST equal to the input.  Parentheses are driven by operator
precedence; additionally a ``match`` that ends a non-final branch body
is parenthesized, since an unparenthesized one would capture the next
branch of the enclosing match.

Every walker dispatches on the node's class through one table keyed by
it, as the evaluator and the specializer do.  An expression printer
takes the precedence context of its position, parenthesizes itself, and
calls its children's printers straight from the table, so each level of
an expression but a projection costs one host frame; a projection chain,
``_absorbs_bar`` and ``count_nodes`` loop.  Any other class is a ``TypeError``.
"""

from __future__ import annotations

from collections import Counter

from .syntax import (
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

# Precedence levels, loosest first: a node whose level is below the
# context it is printed in is parenthesized.
_OPEN, _CMP, _ADD, _MUL, _PROJ, _APP, _ATOM = range(7)

# The infix primitives: spelling -> level, left context, right context.
# Comparison is non-associative, so both sides exclude a comparison.
# Keyed by spelling, which ``_show_prim`` reads from the member's
# ``_value_`` attribute: an enum member's hash and its ``value`` property
# each run a host frame.
_INFIX = {
    PrimOp.EQ.value: (_CMP, _ADD, _ADD),
    PrimOp.ADD.value: (_ADD, _ADD, _MUL),
    PrimOp.MUL.value: (_MUL, _MUL, _PROJ),
}


class _Table(dict):
    """Node class -> printer; any other class gets one that raises
    ``TypeError`` naming the value."""

    def __init__(self, kind: str, printers: dict):
        super().__init__(printers)
        self.kind = kind

    def __missing__(self, cls):
        def reject(node, *_):
            raise TypeError(f"not a {self.kind}: {node!r}")
        return reject


def _projection_printer(word: str):
    """The printer of a projection spelled ``word``.  It prints the chain
    below it in one frame, so every chain the parser reads prints."""
    def show(e: Proj1 | Proj2, ctx: int) -> str:
        prefix = word
        e = e.arg
        cls = type(e)
        while cls in _PROJ_WORDS:
            prefix += _PROJ_WORDS[cls]
            e = e.arg
            cls = type(e)
        text = prefix + _SHOW[cls](e, _PROJ)
        return f"({text})" if ctx > _PROJ else text
    return show


_PROJ_WORDS = {Proj1: "fst ", Proj2: "snd "}


def _show_construct(e: Construct, ctx: int) -> str:
    if not e.args:
        return e.tag
    # A loop, not a generator, so that arguments cost no extra frame.
    parts = []
    for a in e.args:
        parts.append(_SHOW[type(a)](a, _OPEN))
    return f"{e.tag}({', '.join(parts)})"


def _show_match(e: Match, ctx: int) -> str:
    scrutinee = e.scrutinee
    parts = [f"match {_SHOW[type(scrutinee)](scrutinee, _CMP)} with"]
    last = len(e.branches) - 1
    for i, (pat, body) in enumerate(e.branches):
        shown = _SHOW[type(body)](body, _OPEN)
        if i != last and _absorbs_bar(body):
            shown = f"({shown})"
        parts.append(f"| {_SHOW_PATTERN[type(pat)](pat)} -> {shown}")
    text = " ".join(parts)
    return f"({text})" if ctx > _OPEN else text


def _show_binder(e: Let | LetRecFun | Lambda, ctx: int) -> str:
    cls, body = type(e), e.body
    if cls is Lambda:
        head = f"fun {e.param} ->"
    else:
        bound = e.bound if cls is Let else e.fun_body
        name = e.name if cls is Let else f"rec {e.fun_name} {e.param}"
        head = f"let {name} = {_SHOW[type(bound)](bound, _OPEN)} in"
    text = f"{head} {_SHOW[type(body)](body, _OPEN)}"
    return f"({text})" if ctx > _OPEN else text


def _show_app(e: App, ctx: int) -> str:
    # A bare nullary constructor inside an application chain could be
    # followed by a '('-initial atom and reparse as a constructor with
    # arguments; parenthesizing removes the ambiguity.
    f, a = e.fun, e.arg
    left = f"({f.tag})" if type(f) is Construct and not f.args else _SHOW[type(f)](f, _APP)
    right = f"({a.tag})" if type(a) is Construct and not a.args else _SHOW[type(a)](a, _ATOM)
    return f"({left} {right})" if ctx > _APP else f"{left} {right}"


def _show_prim(e: Prim, ctx: int) -> str:
    spelling, args = e.op._value_, e.args
    infix = _INFIX.get(spelling)
    if infix is None:
        parts = []
        for a in args:
            parts.append(_SHOW[type(a)](a, _OPEN))
        return f"{spelling}({', '.join(parts)})"
    level, lhs_ctx, rhs_ctx = infix
    lhs, rhs = args[0], args[1]
    text = f"{_SHOW[type(lhs)](lhs, lhs_ctx)} {spelling} {_SHOW[type(rhs)](rhs, rhs_ctx)}"
    return f"({text})" if ctx > level else text


_SHOW = _Table("meta-language expression", {
    Var: lambda e, ctx: e.name,
    IntLit: lambda e, ctx: str(e.value),
    Tuple: lambda e, ctx: (f"({_SHOW[type(e.fst)](e.fst, _OPEN)}, "
                           f"{_SHOW[type(e.snd)](e.snd, _OPEN)})"),
    Proj1: _projection_printer(_PROJ_WORDS[Proj1]),
    Proj2: _projection_printer(_PROJ_WORDS[Proj2]),
    Construct: _show_construct,
    Match: _show_match,
    Let: _show_binder,
    LetRecFun: _show_binder,
    Lambda: _show_binder,
    App: _show_app,
    Prim: _show_prim,
})


def _absorbs_bar(e: MetExpr) -> bool:
    """True when the right edge of ``e`` would capture a following '|'."""
    while type(e) in (Let, LetRecFun, Lambda):
        e = e.body
    return type(e) is Match


def print_met(e: MetExpr) -> str:
    """Render ``e`` in concrete syntax; reparses to an equal AST."""
    return _SHOW[type(e)](e, _OPEN)


_SHOW_PATTERN = _Table("pattern", {
    PVar: lambda pat: pat.name,
    PWild: lambda pat: "_",
    PInt: lambda pat: str(pat.value),
    PTuple: lambda pat: (f"({_SHOW_PATTERN[type(pat.fst)](pat.fst)}, "
                         f"{_SHOW_PATTERN[type(pat.snd)](pat.snd)})"),
    PConstruct: lambda pat: (f"{pat.tag}({', '.join(map(print_pattern, pat.args))})"
                             if pat.args else pat.tag),
})


def print_pattern(pat: Pattern) -> str:
    return _SHOW_PATTERN[type(pat)](pat)


# Node class -> its subexpressions, in printing order.
_CHILDREN = _Table("meta-language expression", {
    Var: lambda e: (),
    IntLit: lambda e: (),
    Tuple: lambda e: (e.fst, e.snd),
    Proj1: lambda e: (e.arg,),
    Proj2: lambda e: (e.arg,),
    Construct: lambda e: e.args,
    Match: lambda e: (e.scrutinee, *[body for _, body in e.branches]),
    Let: lambda e: (e.bound, e.body),
    LetRecFun: lambda e: (e.fun_body, e.body),
    Lambda: lambda e: (e.body,),
    App: lambda e: (e.fun, e.arg),
    Prim: lambda e: e.args,
})


def count_nodes(e: MetExpr) -> dict[str, int]:
    """Census of AST node kinds and primitive operators.

    Keys are node class names (``Match``, ``App``, ...) plus primitive
    operator names (``AADD``, ``ETA``, ...), in the order their first
    node is printed; absent keys mean zero.  Patterns are not visited.
    A value that is not an expression, at the root or in an expression
    position, raises ``TypeError("not a meta-language expression: …")``,
    as ``print_met`` does.
    """
    counts: Counter[str] = Counter()
    stack = [e]
    while stack:
        node = stack.pop()
        cls = type(node)
        counts[cls.__name__] += 1
        if cls is Prim:
            counts[node.op.name] += 1
        stack.extend(reversed(_CHILDREN[cls](node)))
    return dict(counts)
