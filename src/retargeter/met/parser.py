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
``-`` that starts neither ``->`` nor a literal.  A token is a pair
``(kind, text)``; positions are not kept.  When a ``ParseError`` is
raised, the text is scanned again for the offending token's offset, and
the 1-based line and column are computed from it.

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
PRIM_NAMES = {op.value: op for op in PrimOp if op.is_abstract}

_TOKEN = re.compile(
    r"[ \t\r\n]*("              # layout, then the token:
    r"[^\W\d][\w']*"            # an identifier (a non-ASCII one is checked)
    r"|[()+*=,|]|->|-?[0-9]+"   # punctuation, an integer literal
    r"|#[^\n]*"                 # a comment
    r"|\Z|.)",                  # the end of the text, any other character
    re.S,
)

# A token is a pair (kind, text).  Its kind is "INT", "NAME" (a variable),
# "TAG" (a constructor), "PRIM" or "EOF"; for a keyword, a punctuation mark
# or "_" it is the token's text.
_KINDS = {**{k: k for k in KEYWORDS}, **{p: "PRIM" for p in PRIM_NAMES},
          **{p: p for p in ("(", ")", "+", "*", "=", ",", "|", "->", "_")}, "": "EOF"}
_ATOM_START = frozenset({"INT", "NAME", "TAG", "PRIM", "(", "_"})
_INT_START = frozenset("-0123456789")
_IDENT_CHARS = frozenset("0123456789_'")

_ADD, _MUL, _EQ = PrimOp.ADD, PrimOp.MUL, PrimOp.EQ

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


def tokenize(source: str) -> list[tuple[str, str]]:
    """The tokens of ``source``, ending with an ``EOF`` token."""
    tokens = []
    append = tokens.append
    kinds = _KINDS
    for text in _TOKEN.findall(source):
        kind = kinds.get(text)
        if kind is None:
            c = text[0]
            if c.isalpha() or c == "_":
                if not text.isascii():
                    for k, ch in enumerate(text):
                        if not (ch.isalpha() or ch in _IDENT_CHARS):
                            raise _error(source, f"unexpected character {ch!r}",
                                         len(tokens), k)
                kind = "TAG" if text[0].isupper() else "NAME"
            elif c in _INT_START and text != "-":
                kind = "INT"
            elif c == "#":
                continue
            else:
                raise _error(source, f"unexpected character {c!r}", len(tokens))
        append((kind, text))
    return tokens


class _Parser:
    """Recursive descent over the token list; ``kind`` and ``text`` are the
    current token's, and ``pos`` its index."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.kind, self.text = self.tokens[0]

    def advance(self) -> None:
        self.pos += 1
        self.kind, self.text = self.tokens[self.pos]

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return _error(self.source, message, self.pos if pos is None else pos)

    def expect(self, kind: str) -> None:
        if self.kind != kind:
            raise self.error(f"expected {kind!r}, found {self.text!r}")
        self.advance()

    def int_literal(self) -> int:
        text, pos = self.text, self.pos
        self.advance()
        try:
            return parse_int(text)
        except ParseError as err:    # more digits than int() converts
            raise self.error(str(err), pos) from None

    def name(self) -> str:
        if self.kind != "NAME":
            if self.kind == "_":
                raise self.error("'_' is only valid as a pattern")
            raise self.error(f"expected a variable name, found {self.text!r}")
        name = self.text
        self.advance()
        return name

    def check_tag(self, tag: str, arity: int, pos: int) -> None:
        expected = SRC_SIGNATURE.get(tag)
        if expected is None:
            raise self.error(f"unknown constructor {tag!r}", pos)
        if expected != arity:
            raise self.error(
                f"constructor {tag!r} takes {expected} argument(s), got {arity}", pos
            )

    # -- expressions ------------------------------------------------------

    def expr(self) -> MetExpr:
        kind = self.kind
        if kind == "let":
            self.advance()
            if self.kind == "rec":
                self.advance()
                fname = self.name()
                param = self.name()
                self.expect("=")
                fbody = self.expr()
                self.expect("in")
                return LetRecFun(fname, param, fbody, self.expr())
            name = self.name()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return Let(name, bound, self.expr())
        if kind == "fun":
            self.advance()
            param = self.name()
            self.expect("->")
            return Lambda(param, self.expr())
        if kind == "match":
            self.advance()
            scrutinee = self.expr()
            self.expect("with")
            if self.kind == "|":
                self.advance()
            branches = [self.branch()]
            while self.kind == "|":
                self.advance()
                branches.append(self.branch())
            return Match(scrutinee, tuple(branches))
        left = self.add()
        if self.kind == "=":
            self.advance()
            return Prim(_EQ, (left, self.add()))
        return left

    def branch(self) -> tuple[Pattern, MetExpr]:
        pos = self.pos
        pat = self.pattern()
        if not is_linear(pat):
            raise self.error("pattern binds the same variable twice", pos)
        self.expect("->")
        return pat, self.expr()

    def add(self) -> MetExpr:
        """``add``, with ``mul`` folded in."""
        e = self.proj()
        while self.kind == "*":
            self.advance()
            e = Prim(_MUL, (e, self.proj()))
        while self.kind == "+":
            self.advance()
            right = self.proj()
            while self.kind == "*":
                self.advance()
                right = Prim(_MUL, (right, self.proj()))
            e = Prim(_ADD, (e, right))
        return e

    def proj(self) -> MetExpr:
        """``proj``, with ``app`` folded in."""
        kind = self.kind
        if kind == "fst":
            self.advance()
            return Proj1(self.proj())
        if kind == "snd":
            self.advance()
            return Proj2(self.proj())
        e = self.atom()
        while self.kind in _ATOM_START:
            e = App(e, self.atom())
        return e

    def atom(self) -> MetExpr:
        kind = self.kind
        if kind == "NAME":
            e = Var(self.text)
            self.advance()
            return e
        if kind == "INT":
            return IntLit(self.int_literal())
        if kind == "(":
            self.advance()
            first = self.expr()
            if self.kind == ",":
                self.advance()
                second = self.expr()
                self.expect(")")
                return Tuple(first, second)
            self.expect(")")
            return first
        if kind == "PRIM":
            name, pos = self.text, self.pos
            self.advance()
            args = self.items(self.expr)
            op = PRIM_NAMES[name]
            if len(args) != op.arity:
                raise self.error(f"{name} takes {op.arity} argument(s), got {len(args)}",
                                 pos)
            return Prim(op, args)
        if kind == "TAG":
            tag, pos = self.text, self.pos
            self.advance()
            args = self.items(self.expr) if self.kind == "(" else ()
            self.check_tag(tag, len(args), pos)
            return Construct(tag, args)
        if kind == "_" or kind in KEYWORDS:
            self.name()    # raises the error a misplaced name gets
        raise self.error(f"expected an expression, found {self.text!r}")

    def items(self, parse_item) -> tuple:
        """``"(" item { "," item } ")"``"""
        self.expect("(")
        items = [parse_item()]
        while self.kind == ",":
            self.advance()
            items.append(parse_item())
        self.expect(")")
        return tuple(items)

    # -- patterns ---------------------------------------------------------

    def pattern(self) -> Pattern:
        kind = self.kind
        if kind == "NAME":
            p = PVar(self.text)
            self.advance()
            return p
        if kind == "_":
            self.advance()
            return PWild()
        if kind == "INT":
            return PInt(self.int_literal())
        if kind == "TAG":
            tag, pos = self.text, self.pos
            self.advance()
            args = self.items(self.pattern) if self.kind == "(" else ()
            self.check_tag(tag, len(args), pos)
            return PConstruct(tag, args)
        if kind == "(":
            self.advance()
            first = self.pattern()
            if self.kind == ",":
                self.advance()
                second = self.pattern()
                self.expect(")")
                return PTuple(first, second)
            self.expect(")")
            return first
        if kind == "PRIM" or kind in KEYWORDS:
            self.name()    # raises the error a misplaced name gets
        raise self.error(f"expected a pattern, found {self.text!r}")


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
        expr = parser.expr()
    except RecursionError:
        raise ParseError("input nested too deeply") from None
    if parser.kind != "EOF":
        raise parser.error(f"trailing input starting at {parser.text!r}")
    return expr
