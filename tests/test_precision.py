"""Retargeting loses no precision: each residual, and meta-level analysis,
equals the analyzer derived by hand from the target semantics.

Soundness and equivalence do not see precision: an analyzer answering
``top`` everywhere is sound, and a definitional interpreter that is
concretely right but abstractly coarse passes both.  Equivalence also
runs both of its sides through one evaluator, so an evaluator fault that
moves both alike passes it.  ``tests/direct_analyzer.py`` shares no code
with either side but the abstract operators.

Sign: a program matters only through each instruction's word and the
sign of its operand, so every class of ``single`` (6) and ``seq2`` (36)
is checked on ``bot``, ``top``, the 7 sign sets and a pair.  Interval: a
seeded draw with unbounded, zero-crossing, singleton and huge bounds and
operands.
"""

from __future__ import annotations

import itertools
import random

import pytest

import direct_analyzer
from retargeter import retarget
from retargeter.analyzer import analyze_meta_target
from retargeter.domains import (
    BOT,
    INTERVAL,
    SIGN,
    TOP,
    Interval,
    Num,
    Sign,
    SignSet,
    format_abs,
    make_pair,
)
from retargeter.retargeting import run_specialized_abstract
from retargeter.tgtlang import INSTRUCTIONS, TARGET_TABLE, Instr, TgtProgram, print_tgt_program

HUGE = 10**31


def assert_precise(analyzer, program, a):
    domain = analyzer.domain
    expected = direct_analyzer.analyze(program, a, domain)
    got = {"residual": run_specialized_abstract(analyzer, program, a),
           "meta-level": analyze_meta_target(domain, program, a)}
    for name, result in got.items():
        assert result == expected, (
            f"{name} analysis of {print_tgt_program(program)!r} on {format_abs(a)} under "
            f"{domain.name}: {format_abs(result)}, by hand {format_abs(expected)}")


@pytest.mark.parametrize("target", sorted(TARGET_TABLE))
def test_sign_on_every_class(target):
    analyzer = retarget(target, SIGN)
    sign_sets = [Num(SignSet(frozenset(c))) for r in range(1, 4)
                 for c in itertools.combinations(Sign, r)]
    inputs = [BOT, TOP, *sign_sets, make_pair(sign_sets[0], TOP)]
    classes = list(itertools.product(INSTRUCTIONS, (-7, 0, 5)))
    length = TARGET_TABLE[target][0]
    programs = [TgtProgram(tuple(Instr(*c) for c in cs))
                for cs in itertools.product(classes, repeat=length)]
    assert len(programs) == 6 ** length
    for program in programs:
        for a in inputs:
            assert_precise(analyzer, program, a)


def random_bound(rng: random.Random) -> int:
    return rng.choice([0, 1, -1, rng.randint(-50, 50), HUGE, -HUGE, rng.randint(-HUGE, HUGE)])


def random_interval_input(rng: random.Random):
    kind = rng.choice(["bounded", "singleton", "below", "above", "zero", "huge",
                       "bot", "top", "pair"])
    if kind == "bot":
        return BOT
    if kind == "top":
        return TOP
    if kind == "pair":
        return make_pair(random_interval_input(rng), random_interval_input(rng))
    lo, hi = sorted((random_bound(rng), random_bound(rng)))
    iv = {"bounded": Interval(lo, hi), "singleton": Interval(lo, lo),
          "below": Interval(None, hi), "above": Interval(lo, None),
          "zero": Interval(-rng.randint(1, 9), rng.randint(1, 9)),
          "huge": Interval(-HUGE - rng.randint(0, 9), HUGE)}[kind]
    return Num(iv)


@pytest.mark.parametrize("target", sorted(TARGET_TABLE))
def test_interval_on_seeded_edge_cases(target):
    analyzer = retarget(target, INTERVAL)
    rng = random.Random(14)
    length = TARGET_TABLE[target][0]
    for _ in range(1000):
        program = TgtProgram(tuple(Instr(rng.choice(list(INSTRUCTIONS)), random_bound(rng))
                                   for _ in range(length)))
        assert_precise(analyzer, program, random_interval_input(rng))
