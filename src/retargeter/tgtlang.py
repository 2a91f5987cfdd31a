"""Target languages, their semantics, and encoders into source values.

Two targets ship.  ``single`` programs are one instruction that either
adds or multiplies a constant into the input.  ``seq2`` programs chain
two such instructions, which exercises distinct program/value domains a
step further while staying loop-free.

Programs encode into source-language values (``add n`` as ``(0, n)``,
``mul n`` as ``(1, n)``, a two-instruction sequence as the pair of its
instruction encodings); target values are plain integers and encode as
themselves.  The definitional interpreters live here too, as source
programs over the encoded ``(program, input)`` pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import DecodeError, ParseError
from .srclang import SInt, SPair, SrcExpr, SrcValue, parse_int, parse_src

TARGETS = ("single", "seq2")


class TgtInstr:
    __slots__ = ()


@dataclass(frozen=True)
class AddN(TgtInstr):
    n: int


@dataclass(frozen=True)
class MulN(TgtInstr):
    n: int


class TgtProgram:
    __slots__ = ()


@dataclass(frozen=True)
class Single(TgtProgram):
    instr: TgtInstr


@dataclass(frozen=True)
class Seq2(TgtProgram):
    first: TgtInstr
    second: TgtInstr


def target_of(p: TgtProgram) -> str:
    return "single" if isinstance(p, Single) else "seq2"


def check_target(target: str) -> str:
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    return target


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


def _step(instr: TgtInstr, v: int) -> int:
    if isinstance(instr, AddN):
        return instr.n + v
    if isinstance(instr, MulN):
        return instr.n * v
    raise TypeError(f"not an instruction: {instr!r}")


def eval_tgt(p: TgtProgram, i: int) -> int:
    """Run a target program on an integer input; total."""
    if isinstance(p, Single):
        return _step(p.instr, i)
    if isinstance(p, Seq2):
        return _step(p.second, _step(p.first, i))
    raise TypeError(f"not a target program: {p!r}")


# ---------------------------------------------------------------------------
# Concrete syntax:  "add 42",  "mul 3",  "add 1 ; mul 3"
# ---------------------------------------------------------------------------


def _parse_instr(text: str) -> TgtInstr:
    parts = text.split()
    if len(parts) != 2 or parts[0] not in ("add", "mul"):
        raise ParseError(f"malformed instruction {text.strip()!r}; expected 'add <int>' or 'mul <int>'")
    try:
        n = parse_int(parts[1])
    except ValueError:
        raise ParseError(f"malformed operand {parts[1]!r}") from None
    return AddN(n) if parts[0] == "add" else MulN(n)


def parse_tgt_program(text: str) -> TgtProgram:
    pieces = text.split(";")
    if len(pieces) == 1:
        return Single(_parse_instr(pieces[0]))
    if len(pieces) == 2:
        return Seq2(_parse_instr(pieces[0]), _parse_instr(pieces[1]))
    raise ParseError("a program is one instruction or two separated by ';'")


def print_tgt_program(p: TgtProgram) -> str:
    def show(instr: TgtInstr) -> str:
        word = "add" if isinstance(instr, AddN) else "mul"
        return f"{word} {instr.n}"

    if isinstance(p, Single):
        return show(p.instr)
    return f"{show(p.first)} ; {show(p.second)}"


# ---------------------------------------------------------------------------
# Encoders and decoders
# ---------------------------------------------------------------------------


def _encode_instr(instr: TgtInstr) -> SrcValue:
    opcode = 0 if isinstance(instr, AddN) else 1
    return SPair(SInt(opcode), SInt(instr.n))


def encode_tgt_program(p: TgtProgram) -> SrcValue:
    if isinstance(p, Single):
        return _encode_instr(p.instr)
    if isinstance(p, Seq2):
        return SPair(_encode_instr(p.first), _encode_instr(p.second))
    raise TypeError(f"not a target program: {p!r}")


def encode_tgt_value(v: int) -> SrcValue:
    return SInt(v)


def _decode_instr(v: SrcValue) -> TgtInstr:
    if not (isinstance(v, SPair) and isinstance(v.fst, SInt) and isinstance(v.snd, SInt)):
        raise DecodeError(f"not an instruction encoding: {v!r}")
    opcode, n = v.fst.value, v.snd.value
    if opcode == 0:
        return AddN(n)
    if opcode == 1:
        return MulN(n)
    raise DecodeError(f"unknown opcode {opcode}")


def decode_tgt_program(v: SrcValue, target: str) -> TgtProgram:
    """Partial left inverse of :func:`encode_tgt_program`."""
    check_target(target)
    if target == "single":
        return Single(_decode_instr(v))
    if not isinstance(v, SPair):
        raise DecodeError(f"not a two-instruction encoding: {v!r}")
    return Seq2(_decode_instr(v.fst), _decode_instr(v.snd))


def decode_tgt_value(v: SrcValue) -> int:
    if not isinstance(v, SInt):
        raise DecodeError(f"not a value encoding: {v!r}")
    return v.value


# ---------------------------------------------------------------------------
# Definitional interpreters (source programs)
# ---------------------------------------------------------------------------

# Input is x = (encoded program, input value).  An instruction encoding
# (op, n) applies as  n + v  when op = 0 and  n * v  otherwise.
_SINGLE_INTERPRETER = """
(if (= (fst (fst x)) 0)
    (+ (snd (fst x)) (snd x))
    (* (snd (fst x)) (snd x)))
"""

# For seq2, x = ((enc i1, enc i2), input).  The source language has no
# let, so the first step's result expression appears once per branch of
# the second step's dispatch.
_INNER_STEP = """
(if (= (fst (fst (fst x))) 0)
    (+ (snd (fst (fst x))) (snd x))
    (* (snd (fst (fst x))) (snd x)))
"""

_SEQ2_INTERPRETER = f"""
(if (= (fst (snd (fst x))) 0)
    (+ (snd (snd (fst x))) {_INNER_STEP})
    (* (snd (snd (fst x))) {_INNER_STEP}))
"""


@lru_cache(maxsize=None)
def interpreter_fixture(target: str) -> SrcExpr:
    """The definitional interpreter for ``target`` as a source program.

    Satisfies, for every program ``p`` and input ``i`` of that target::

        eval_src(fixture, SPair(encode_tgt_program(p), encode_tgt_value(i)))
            == encode_tgt_value(eval_tgt(p, i))
    """
    check_target(target)
    text = _SINGLE_INTERPRETER if target == "single" else _SEQ2_INTERPRETER
    return parse_src(text)


# ---------------------------------------------------------------------------
# Random programs for the harnesses
# ---------------------------------------------------------------------------


def random_tgt_program(rng: random.Random, target: str, magnitude_bound: int = 1000) -> TgtProgram:
    check_target(target)

    def instr() -> TgtInstr:
        ctor = AddN if rng.random() < 0.5 else MulN
        return ctor(rng.randint(-magnitude_bound, magnitude_bound))

    if target == "single":
        return Single(instr())
    return Seq2(instr(), instr())
