"""The meta-language parser with one method per grammar rule: the
differential oracle.

This is the parser ``retargeter.met.parser`` had before it lexed with one
regular expression and folded the infix levels together, kept verbatim
with its own character-by-character tokenizer so that it shares no
parsing code with the module it checks.  ``tests/test_met_parser.py``
compares the two on ASTs and on error messages and positions.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from retargeter.errors import ParseError
from retargeter.srclang import SRC_SIGNATURE
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
    is_linear,
)

KEYWORDS = {"let", "rec", "in", "fun", "match", "with", "fst", "snd"}
PRIM_NAMES = {op.value: op for op in PrimOp if op.is_abstract}


@dataclass(frozen=True)
class Token:
    kind: str  # INT LIDENT UIDENT PUNCT EOF
    text: str
    line: int
    column: int


def tokenize(text: str) -> Iterator[Token]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "#":
            end = text.find("\n", i)
            end = n if end < 0 else end
            i, col = end, col + end - i
            continue
        start_line, start_col = line, col
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            yield Token("INT", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            yield Token("PUNCT", "->", start_line, start_col)
            i, col = i + 2, col + 2
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = "UIDENT" if word[0].isupper() else "LIDENT"
            yield Token(kind, word, start_line, start_col)
            col += j - i
            i = j
            continue
        if c in "()+*=,|":
            yield Token("PUNCT", c, start_line, start_col)
            i, col = i + 1, col + 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    yield Token("EOF", "", line, col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(tokenize(text))
        self.pos = 0

    # -- token helpers ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.cur
        return ParseError(message, tok.line, tok.column)

    def expect(self, text: str) -> Token:
        tok = self.cur
        if tok.text != text or tok.kind == "EOF":
            raise self.error(f"expected {text!r}, found {tok.text!r}")
        return self.advance()

    def int_literal(self) -> int:
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:    # more digits than int() converts
            raise self.error(f"integer literal too long ({len(tok.text)} characters)",
                             tok) from None

    def expect_name(self) -> str:
        tok = self.cur
        if tok.kind != "LIDENT" or tok.text in KEYWORDS or tok.text in PRIM_NAMES:
            raise self.error(f"expected a variable name, found {tok.text!r}")
        if tok.text == "_":
            raise self.error("'_' is only valid as a pattern")
        self.advance()
        return tok.text

    def starts_atom(self) -> bool:
        tok = self.cur
        if tok.kind in ("INT", "UIDENT"):
            return True
        if tok.kind == "PUNCT" and tok.text == "(":
            return True
        if tok.kind == "LIDENT":
            return tok.text in PRIM_NAMES or tok.text not in KEYWORDS
        return False

    # -- expressions ------------------------------------------------------

    def parse_expr(self) -> MetExpr:
        tok = self.cur
        if tok.text == "let":
            self.advance()
            if self.cur.text == "rec":
                self.advance()
                fname = self.expect_name()
                param = self.expect_name()
                self.expect("=")
                fbody = self.parse_expr()
                self.expect("in")
                body = self.parse_expr()
                return LetRecFun(fname, param, fbody, body)
            name = self.expect_name()
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            return Let(name, bound, body)
        if tok.text == "fun":
            self.advance()
            param = self.expect_name()
            self.expect("->")
            return Lambda(param, self.parse_expr())
        if tok.text == "match":
            self.advance()
            scrutinee = self.parse_expr()
            self.expect("with")
            if self.cur.text == "|":
                self.advance()
            branches = [self.parse_branch()]
            while self.cur.text == "|":
                self.advance()
                branches.append(self.parse_branch())
            return Match(scrutinee, tuple(branches))
        return self.parse_cmp()

    def parse_branch(self) -> tuple[Pattern, MetExpr]:
        tok = self.cur
        pat = self.parse_pattern()
        if not is_linear(pat):
            raise self.error("pattern binds the same variable twice", tok)
        self.expect("->")
        return pat, self.parse_expr()

    def parse_cmp(self) -> MetExpr:
        left = self.parse_add()
        if self.cur.text == "=":
            self.advance()
            right = self.parse_add()
            return Prim(PrimOp.EQ, (left, right))
        return left

    def parse_add(self) -> MetExpr:
        e = self.parse_mul()
        while self.cur.text == "+":
            self.advance()
            e = Prim(PrimOp.ADD, (e, self.parse_mul()))
        return e

    def parse_mul(self) -> MetExpr:
        e = self.parse_proj()
        while self.cur.text == "*":
            self.advance()
            e = Prim(PrimOp.MUL, (e, self.parse_proj()))
        return e

    def parse_proj(self) -> MetExpr:
        if self.cur.text == "fst":
            self.advance()
            return Proj1(self.parse_proj())
        if self.cur.text == "snd":
            self.advance()
            return Proj2(self.parse_proj())
        return self.parse_app()

    def parse_app(self) -> MetExpr:
        e = self.parse_atom()
        while self.starts_atom():
            e = App(e, self.parse_atom())
        return e

    def parse_atom(self) -> MetExpr:
        tok = self.cur
        if tok.kind == "INT":
            return IntLit(self.int_literal())
        if tok.kind == "LIDENT" and tok.text in PRIM_NAMES:
            self.advance()
            op = PRIM_NAMES[tok.text]
            args = self.parse_paren_list(self.parse_expr)
            if len(args) != op.arity:
                raise self.error(f"{tok.text} takes {op.arity} argument(s), got {len(args)}", tok)
            return Prim(op, tuple(args))
        if tok.kind == "LIDENT":
            return Var(self.expect_name())
        if tok.kind == "UIDENT":
            self.advance()
            args: list[MetExpr] = []
            if self.cur.text == "(":
                args = self.parse_paren_list(self.parse_expr)
            self.check_tag(tok, len(args))
            return Construct(tok.text, tuple(args))
        if tok.text == "(":
            self.advance()
            first = self.parse_expr()
            if self.cur.text == ",":
                self.advance()
                second = self.parse_expr()
                self.expect(")")
                return Tuple(first, second)
            self.expect(")")
            return first
        raise self.error(f"expected an expression, found {tok.text!r}")

    def parse_paren_list(self, parse_item) -> list:
        self.expect("(")
        items = [parse_item()]
        while self.cur.text == ",":
            self.advance()
            items.append(parse_item())
        self.expect(")")
        return items

    def check_tag(self, tok: Token, arity: int) -> None:
        expected = SRC_SIGNATURE.get(tok.text)
        if expected is None:
            raise self.error(f"unknown constructor {tok.text!r}", tok)
        if expected != arity:
            raise self.error(
                f"constructor {tok.text!r} takes {expected} argument(s), got {arity}", tok
            )

    # -- patterns ---------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        tok = self.cur
        if tok.kind == "INT":
            return PInt(self.int_literal())
        if tok.text == "_":
            self.advance()
            return PWild()
        if tok.kind == "LIDENT":
            return PVar(self.expect_name())
        if tok.kind == "UIDENT":
            self.advance()
            args: list[Pattern] = []
            if self.cur.text == "(":
                args = self.parse_paren_list(self.parse_pattern)
            self.check_tag(tok, len(args))
            return PConstruct(tok.text, tuple(args))
        if tok.text == "(":
            self.advance()
            first = self.parse_pattern()
            if self.cur.text == ",":
                self.advance()
                second = self.parse_pattern()
                self.expect(")")
                return PTuple(first, second)
            self.expect(")")
            return first
        raise self.error(f"expected a pattern, found {tok.text!r}")


def parse_met(text: str) -> MetExpr:
    """Parse meta-language source text into an AST.

    Constructor tags and their arities are those of the embedded
    source-language AST (``srclang.SRC_SIGNATURE``).
    """
    parser = _Parser(text)
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise ParseError("input nested too deeply") from None
    tok = parser.cur
    if tok.kind != "EOF":
        raise parser.error(f"trailing input starting at {tok.text!r}")
    return expr
