"""Target languages, their semantics, and encoders into source values.

Two tables define the targets, and the functions here read them instead
of branching on a target or an instruction.  :data:`INSTRUCTIONS` gives
each instruction's surface word, opcode and semantics (``add n`` maps an
input ``v`` to ``n + v``, ``mul n`` to ``n * v``).  :data:`TARGET_TABLE`
gives each target's name, number of instructions (``single`` 1, ``seq2``
2) and definitional interpreter: a source program over the encoded
``(program, input)`` pair.

A program is a tuple of instructions, run first to last and written with
``;`` between them.  It encodes as a source value: ``word n`` as
``(opcode, n)`` and a sequence as the right-nested pairs of those, so
``add 1 ; mul 3`` is ``((0, 1), (1, 3))``.  Target values are integers
and encode as themselves.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import ParseError
from .srclang import SInt, SPair, SrcExpr, SrcValue, parse_int, parse_src

# Instruction table: surface word -> (opcode, semantics(n, v)).
INSTRUCTIONS = {
    "add": (0, operator.add),
    "mul": (1, operator.mul),
}

# Definitional interpreters, as source programs over x = (encoded program,
# input).  An instruction encoding (op, n) applies as  n + v  when op = 0
# and  n * v  otherwise.
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

# Target table: name -> (number of instructions, definitional interpreter).
TARGET_TABLE = {
    "single": (1, _SINGLE_INTERPRETER),
    "seq2": (2, _SEQ2_INTERPRETER),
}

TARGETS = tuple(TARGET_TABLE)
_TARGET_OF_LENGTH = {length: name for name, (length, _) in TARGET_TABLE.items()}
_WORDS = tuple(INSTRUCTIONS)
_EXPECTED = " or ".join(f"'{word} <int>'" for word in _WORDS)


class Instr(NamedTuple):
    """One instruction: a word of :data:`INSTRUCTIONS` and its operand."""

    word: str
    n: int


@dataclass(frozen=True)
class TgtProgram:
    """A target program: its instructions, run first to last."""

    instrs: tuple[Instr, ...]


def target_of(p: TgtProgram) -> str:
    return _TARGET_OF_LENGTH[len(p.instrs)]


def check_target(target: str) -> str:
    if target not in TARGET_TABLE:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    return target


def eval_tgt(p: TgtProgram, i: int) -> int:
    """Run a target program on an integer input; total."""
    for instr in p.instrs:
        i = INSTRUCTIONS[instr.word][1](instr.n, i)
    return i


def _parse_instr(text: str) -> Instr:
    parts = text.split()
    if len(parts) != 2 or parts[0] not in INSTRUCTIONS:
        raise ParseError(f"malformed instruction {text.strip()!r}; expected {_EXPECTED}")
    try:
        n = parse_int(parts[1])
    except ValueError:
        raise ParseError(f"malformed operand {parts[1]!r}") from None
    return Instr(parts[0], n)


def parse_tgt_program(text: str) -> TgtProgram:
    """Read a program written like ``add 42``, ``mul 3`` or ``add 1 ; mul 3``."""
    pieces = text.split(";")
    if len(pieces) not in _TARGET_OF_LENGTH:
        raise ParseError("a program is one instruction or two separated by ';'")
    return TgtProgram(tuple([_parse_instr(piece) for piece in pieces]))


def print_tgt_program(p: TgtProgram) -> str:
    return " ; ".join(f"{instr.word} {instr.n}" for instr in p.instrs)


def _encode_instr(instr: Instr) -> SrcValue:
    return SPair(SInt(INSTRUCTIONS[instr.word][0]), SInt(instr.n))


def encode_tgt_program(p: TgtProgram) -> SrcValue:
    *init, last = p.instrs
    encoded = _encode_instr(last)
    for instr in reversed(init):
        encoded = SPair(_encode_instr(instr), encoded)
    return encoded


def encode_tgt_value(v: int) -> SrcValue:
    return SInt(v)


@lru_cache(maxsize=None)
def interpreter_fixture(target: str) -> SrcExpr:
    """The definitional interpreter for ``target`` as a source program.

    Satisfies, for every program ``p`` and input ``i`` of that target::

        eval_src(fixture, SPair(encode_tgt_program(p), encode_tgt_value(i)))
            == encode_tgt_value(eval_tgt(p, i))
    """
    return parse_src(TARGET_TABLE[check_target(target)][1])


def random_tgt_program(rng: random.Random, target: str, magnitude_bound: int = 1000) -> TgtProgram:
    """A program of ``target``.  Each instruction draws its word uniformly
    with one ``rng.random()`` and then its operand with ``rng.randint``."""
    length = TARGET_TABLE[check_target(target)][0]
    return TgtProgram(tuple([
        Instr(_WORDS[int(rng.random() * len(_WORDS))],
              rng.randint(-magnitude_bound, magnitude_bound))
        for _ in range(length)]))
