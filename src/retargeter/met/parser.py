"""Parser for the meta-language concrete syntax.

Grammar (precedence from loosest to tightest; ``e`` is ``expr``)::

    expr    ::= "let" "rec" name name "=" expr "in" expr
              | "let" name "=" expr "in" expr
              | "fun" name "->" expr
              | "match" expr "with" ["|"] branch { "|" branch }
              | cmp
    branch  ::= pattern "->" expr
    cmp     ::= add [ "=" add ]                 (non-associative)
    add     ::= mul { "+" mul }
    mul     ::= proj { "*" proj }
    proj    ::= ("fst" | "snd") proj | app
    app     ::= atom { atom }                   (application, left-assoc)
    atom    ::= int | name
              | Tag [ "(" expr { "," expr } ")" ]
              | prim "(" expr { "," expr } ")"
              | "(" expr ")" | "(" expr "," expr ")"
    pattern ::= int | "_" | name
              | Tag [ "(" pattern { "," pattern } ")" ]
              | "(" pattern "," pattern ")" | "(" pattern ")"

Variables are lowercase identifiers, constructor tags are capitalized.
A ``#`` starts a comment that runs to the end of the line.
A ``match`` extends as far to the right as possible, so a match that is
not the final branch of an enclosing match must be parenthesized; the
printer takes care of that.  Constructor applications are checked against
a tag-to-arity signature, and match patterns must be linear.

Lexing is one pass of one regular expression over the whole text, done
before any parsing, so a character that starts no token is reported
before any syntax error, at its own position.  An integer literal is
ASCII digits with an optional leading ``-`` (``-?[0-9]+``).  An
identifier starts with a letter (``str.isalpha``) or ``_`` and goes on
with letters, ASCII digits, ``_`` and ``'``.  Layout is space, tab,
carriage return and newline.  Any other character outside the
punctuation ``( ) + * = , | ->`` is an "unexpected character", and so is a
``-`` that starts neither ``->`` nor a literal.  The tokens are a list of
texts and a list of kinds: a keyword, a punctuation mark or a primitive's
name is looked up whole in one table, and a name, a tag or an integer
literal is classified there by its first character.  Positions are not
kept: when a ``ParseError`` is raised, the text is scanned again for the
offending token's offset, and the 1-based line and column are computed
from it.

The parser spends one host frame per level of nesting, and every level
is counted: a bracket in an expression or a pattern (parentheses and
argument lists), and the bound expression, body, scrutinee or branch of
a ``let``, ``fun`` or ``match`` (a pattern is one level inside its
``match``).  More than ``NESTING_LIMIT`` levels open at once is "input
nested too deeply" however deep in the host stack ``parse_met`` is
called: a chain of more than 300 ``let`` bodies fails at every depth of
the caller, the top level included.  More than ``PROJECTION_LIMIT``
``fst``/``snd`` open at once, counted across brackets, is the same error,
which bounds every projection chain in the tree; a prefix costs no frame.

``parse_met`` is memoized on its text: a text parsed again while it is
among the ``MEMO_SIZE`` most recently parsed gives the same tree object,
so the evaluator, which caches compiled code on each node, compiles a
residual read again from the same text only once.  The trees are
immutable, so sharing one is exact.  A text that fails to parse is not
memoized: it is parsed again on every call and raises an equal
``ParseError``.
"""

from __future__ import annotations

import functools
import re
import string

from ..errors import ParseError
from ..srclang import SRC_SIGNATURE, parse_int
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
    is_linear,
)

KEYWORDS = {"let", "rec", "in", "fun", "match", "with", "fst", "snd"}
_PRIMS = {op.value: (op, op.arity) for op in PrimOp if op.is_abstract}

_TOKEN = re.compile(
    r"[ \t\r\n]*("              # layout, then the token:
    r"[^\W\d][\w']*"            # an identifier (a non-ASCII one is checked)
    r"|[()+*=,|]|->|-?[0-9]+"   # punctuation, an integer literal
    r"|#[^\n]*"                 # a comment
    r"|\Z|.)",                  # the end of the text, any other character
    re.S,
)

# The kind of a text from its first character; "#" is a comment.
_FIRST = {**{c: "NAME" for c in string.ascii_lowercase + "_"},
          **{c: "TAG" for c in string.ascii_uppercase},
          **{c: "INT" for c in string.digits + "-"}, "#": "#"}


class _Kinds(dict):
    """Token text -> kind: "NAME" (a variable), "TAG" (a constructor),
    "INT", "PRIM", "EOF", or the text itself; None for no token."""

    def __missing__(self, text):
        kind = _FIRST.get(text[0])
        if kind is None and text[0].isalpha():    # a non-ASCII name or tag
            kind = "TAG" if text[0].isupper() else "NAME"
        return kind


_KINDS = _Kinds({**{k: k for k in KEYWORDS}, **{p: "PRIM" for p in _PRIMS},
                 **{p: p for p in ("(", ")", "+", "*", "=", ",", "|", "->", "_")},
                 "": "EOF", "-": None})
_ATOM_START = frozenset({"INT", "NAME", "TAG", "PRIM", "(", "_"})
_ITEM_END = frozenset({",", ")"})
_IDENT_CHARS = frozenset("0123456789_'")

_ADD, _MUL, _EQ = PrimOp.ADD, PrimOp.MUL, PrimOp.EQ

# A level of nesting costs the parser one host frame, so a text this deep
# parses at any caller depth.  A projection costs none, nor does it in the
# evaluator, the specializer or the printer; its limit bounds the chains
# that records' ``==``, ``hash`` and ``repr`` and the oracles recurse through.
NESTING_LIMIT = 300
PROJECTION_LIMIT = 1000

# Texts whose trees ``parse_met`` keeps.  The built-in targets have two
# residual texts between them, since ``retarget`` emits the same one under
# every domain, so a process that reads residuals back hits the memo from
# its second request on.  A caller that parses a new text every time, as a
# specializer round trip does, pays for every tree kept: a stream of such
# round trips measured slower and larger with 8 trees kept, and no
# different from no memo with 2.  The abstract interpreter's own source
# needs no place: ``analyzer`` keeps that tree.
MEMO_SIZE = 2


def _error(source: str, message: str, index: int, skip: int = 0) -> ParseError:
    """An error at character ``skip`` of token number ``index``."""
    starts = [m.start(1) for m in _TOKEN.finditer(source) if m[1][:1] != "#"]
    offset = starts[index] + skip
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


def tokenize(source: str) -> tuple[list[str], list[str]]:
    """The texts and the kinds of the tokens of ``source``, ending with an
    ``EOF`` token.  Only a text with a comment, a non-ASCII character or a
    character that starts no token is looked at token by token."""
    texts = _TOKEN.findall(source)
    kinds = list(map(_KINDS.__getitem__, texts))
    if None not in kinds and "#" not in source and source.isascii():
        return texts, kinds
    kept_texts, kept_kinds = [], []
    for text, kind in zip(texts, kinds):
        if kind == "#":
            continue
        if kind is None:
            raise _error(source, f"unexpected character {text[0]!r}", len(kept_texts))
        if not text.isascii():          # an identifier that starts with a letter
            for k, ch in enumerate(text):
                if not (ch.isalpha() or ch in _IDENT_CHARS):
                    raise _error(source, f"unexpected character {ch!r}", len(kept_texts), k)
        kept_texts.append(text)
        kept_kinds.append(kind)
    return kept_texts, kept_kinds


class _Parser:
    """Recursive descent: ``expr`` reads the infix levels, applications
    and atoms of an expression in one loop, and calls itself only for what
    a bracket, a ``let``, a ``fun`` or a ``match`` encloses.  ``pos`` is
    the next token's index; a method reads it on entry, sets it on return."""

    def __init__(self, source: str):
        self.source = source
        self.texts, self.kinds = tokenize(source)
        self.pos = 0

    def error(self, message: str, pos: int) -> ParseError:
        return _error(self.source, message, pos)

    def expected(self, kind: str, pos: int) -> ParseError:
        return self.error(f"expected {kind!r}, found {self.texts[pos]!r}", pos)

    def int_literal(self, pos: int) -> int:
        try:
            return parse_int(self.texts[pos])
        except ParseError as err:
            raise self.error(str(err), pos) from None

    def name(self, pos: int) -> str:
        kind = self.kinds[pos]
        if kind != "NAME":
            if kind == "_":
                raise self.error("'_' is only valid as a pattern", pos)
            raise self.error(f"expected a variable name, found {self.texts[pos]!r}", pos)
        return self.texts[pos]

    def check_tag(self, tag: str, arity: int, pos: int) -> None:
        expected = SRC_SIGNATURE.get(tag)
        if expected is None:
            raise self.error(f"unknown constructor {tag!r}", pos)
        if expected != arity:
            raise self.error(f"constructor {tag!r} takes {expected} argument(s), got {arity}",
                             pos)

    # -- expressions ------------------------------------------------------

    def expr(self, depth: int, projs: int) -> MetExpr:
        """The expression at ``pos``, inside ``depth`` open brackets and
        ``projs`` open projections."""
        kinds, texts = self.kinds, self.texts
        pos = self.pos
        kind = kinds[pos]
        if kind == "let":
            depth += 1              # the bound expression and the body are inside
            if depth > NESTING_LIMIT:
                raise ParseError("input nested too deeply")
            rec = kinds[pos + 1] == "rec"
            if rec:
                fname = self.name(pos + 2)
                pos += 2
            name = self.name(pos + 1)
            if kinds[pos + 2] != "=":
                raise self.expected("=", pos + 2)
            self.pos = pos + 3
            bound = self.expr(depth, projs)
            pos = self.pos
            if kinds[pos] != "in":
                raise self.expected("in", pos)
            self.pos = pos + 1
            if rec:
                return LetRecFun(fname, name, bound, self.expr(depth, projs))
            return Let(name, bound, self.expr(depth, projs))
        if kind == "fun":
            depth += 1              # the body is inside
            if depth > NESTING_LIMIT:
                raise ParseError("input nested too deeply")
            param = self.name(pos + 1)
            if kinds[pos + 2] != "->":
                raise self.expected("->", pos + 2)
            self.pos = pos + 3
            return Lambda(param, self.expr(depth, projs))
        if kind == "match":
            depth += 1              # the scrutinee, patterns and branches are inside
            if depth > NESTING_LIMIT:
                raise ParseError("input nested too deeply")
            self.pos = pos + 1
            scrutinee = self.expr(depth, projs)
            pos = self.pos
            if kinds[pos] != "with":
                raise self.expected("with", pos)
            pos += 2 if kinds[pos + 1] == "|" else 1
            branches = []
            while True:
                self.pos = pos
                pat = self.pattern(depth)
                if not is_linear(pat):
                    raise self.error("pattern binds the same variable twice", pos)
                pos = self.pos
                if kinds[pos] != "->":
                    raise self.expected("->", pos)
                self.pos = pos + 1
                branches.append((pat, self.expr(depth, projs)))
                pos = self.pos
                if kinds[pos] != "|":
                    return Match(scrutinee, tuple(branches))
                pos += 1

        # cmp, add and mul in one loop: the operands of "=" and "+" so far,
        # and of the "*" being read.
        left = total = product = None
        while True:
            start = pos                 # proj: {"fst" | "snd"} app
            while kind == "fst" or kind == "snd":
                pos += 1
                kind = kinds[pos]
            opened = projs + pos - start
            if opened > PROJECTION_LIMIT:
                raise ParseError("input nested too deeply")
            first, e = pos, None
            while True:                 # app: atom {atom}
                if kind == "NAME":
                    a = Var(texts[pos])
                    pos += 1
                elif kind == "INT":
                    a = IntLit(self.int_literal(pos))
                    pos += 1
                elif kind == "(" or kind == "PRIM" or kind == "TAG":
                    at = pos
                    if kind != "(":
                        pos += 1
                    items = []
                    if kinds[pos] == "(":
                        if depth >= NESTING_LIMIT:
                            raise ParseError("input nested too deeply")
                        while True:     # a variable or an integer item is read inline
                            pos += 1
                            k = kinds[pos]
                            if (k == "NAME" or k == "INT") and kinds[pos + 1] in _ITEM_END:
                                items.append(Var(texts[pos]) if k == "NAME"
                                             else IntLit(self.int_literal(pos)))
                                pos += 1
                            else:
                                self.pos = pos
                                items.append(self.expr(depth + 1, opened))
                                pos = self.pos
                            if kinds[pos] != "," or kind == "(" and len(items) == 2:
                                break
                        if kinds[pos] != ")":
                            raise self.expected(")", pos)
                        pos += 1
                    elif kind == "PRIM":
                        raise self.expected("(", pos)
                    if kind == "(":
                        a = items[0] if len(items) == 1 else Tuple(*items)
                    elif kind == "PRIM":
                        op, arity = _PRIMS[texts[at]]
                        if len(items) != arity:
                            raise self.error(f"{texts[at]} takes {arity} argument(s), "
                                             f"got {len(items)}", at)
                        a = Prim(op, tuple(items))
                    else:
                        self.check_tag(texts[at], len(items), at)
                        a = Construct(texts[at], tuple(items))
                else:
                    if kind == "_" or kind in KEYWORDS:
                        self.name(pos)    # raises the error a misplaced name gets
                    raise self.error(f"expected an expression, found {texts[pos]!r}", pos)
                e = a if e is None else App(e, a)
                kind = kinds[pos]
                if kind not in _ATOM_START:
                    break
            if first != start:
                for k in range(first - 1, start - 1, -1):
                    e = Proj1(e) if kinds[k] == "fst" else Proj2(e)
            product = e if product is None else Prim(_MUL, (product, e))
            if kind != "*":
                total = product if total is None else Prim(_ADD, (total, product))
                product = None
                if kind != "+":
                    if kind != "=" or left is not None:
                        break
                    left, total = total, None
            pos += 1
            kind = kinds[pos]
        self.pos = pos
        return total if left is None else Prim(_EQ, (left, total))

    # -- patterns ---------------------------------------------------------

    def pattern(self, depth: int) -> Pattern:
        """The pattern at ``pos``, inside ``depth`` levels of nesting."""
        kinds, texts = self.kinds, self.texts
        pos = self.pos
        kind = kinds[pos]
        self.pos = pos + 1
        if kind == "NAME":
            return PVar(texts[pos])
        if kind == "_":
            return PWild()
        if kind == "INT":
            return PInt(self.int_literal(pos))
        if kind == "TAG" or kind == "(":
            at = pos
            if kind == "TAG":
                pos += 1
            items = []
            if kinds[pos] == "(":
                if depth >= NESTING_LIMIT:
                    raise ParseError("input nested too deeply")
                while True:
                    self.pos = pos + 1
                    items.append(self.pattern(depth + 1))
                    pos = self.pos
                    if kinds[pos] != "," or kind == "(" and len(items) == 2:
                        break
                if kinds[pos] != ")":
                    raise self.expected(")", pos)
                pos += 1
            self.pos = pos
            if kind == "(":
                return items[0] if len(items) == 1 else PTuple(*items)
            self.check_tag(texts[at], len(items), at)
            return PConstruct(texts[at], tuple(items))
        if kind == "PRIM" or kind in KEYWORDS:
            self.name(pos)    # raises the error a misplaced name gets
        raise self.error(f"expected a pattern, found {texts[pos]!r}", pos)


def parse_met(text: str) -> MetExpr:
    """Parse meta-language source text into an AST.

    Constructor tags and their arities are those of the embedded
    source-language AST (``srclang.SRC_SIGNATURE``).  A text among the
    ``MEMO_SIZE`` most recently parsed gives the tree it gave before.
    """
    return _parse(text)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _parse(text: str) -> MetExpr:
    parser = _Parser(text)
    try:
        expr = parser.expr(0, 0)
    except RecursionError:
        raise ParseError("input nested too deeply") from None
    pos = parser.pos
    if parser.kinds[pos] != "EOF":
        raise parser.error(f"trailing input starting at {parser.texts[pos]!r}", pos)
    return expr
