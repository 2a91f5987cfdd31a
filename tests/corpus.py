"""Program corpus for specialization-correctness fuzzing.

Each entry is a closed meta-language function over a pair; ``gen`` draws
a (known, unknown) input split.  The correctness statement under test:
running the specialized program on the unknown half equals running the
original on the whole pair, exactly, whenever the original run is
defined.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from retargeter.analyzer import build_abstract_interpreter
from retargeter.domains import INTERVAL, SIGN, NumericDomain
from retargeter.met.parser import parse_met
from retargeter.met.syntax import MetExpr, MetValue, VConstruct, VInt, VTuple
from retargeter.srclang import (
    embed_src_expr,
    embed_src_value,
    random_src_expr,
    random_src_value,
    shape_of,
)
from retargeter.tgtlang import (
    encode_tgt_program,
    encode_tgt_value,
    interpreter_fixture,
    random_tgt_program,
)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    expr: MetExpr
    gen: Callable[[random.Random], tuple[MetValue, MetValue]]
    domain: NumericDomain = INTERVAL


def _int(rng: random.Random) -> MetValue:
    return VInt(rng.randint(-1000, 1000))


def _int_pair(rng: random.Random) -> tuple[MetValue, MetValue]:
    return _int(rng), _int(rng)


def _num_or_x(rng: random.Random) -> MetValue:
    if rng.random() < 0.5:
        return VConstruct("Num", (_int(rng),))
    return VConstruct("X", ())


def _int_list(rng: random.Random) -> MetValue:
    out: MetValue = VConstruct("X", ())
    for _ in range(rng.randint(0, 6)):
        out = VConstruct("Pair", (_int(rng), out))
    return out


def _encoded_target_run(target: str):
    def gen(rng: random.Random) -> tuple[MetValue, MetValue]:
        program = random_tgt_program(rng, target)
        value = rng.randint(-1000, 1000)
        i1 = embed_src_expr(interpreter_fixture(target))
        i2 = embed_src_value(
            _pair(encode_tgt_program(program), encode_tgt_value(value))
        )
        return i1, i2

    return gen


def _pair(a, b):
    from retargeter.srclang import SPair

    return SPair(a, b)


def _random_src_run(rng: random.Random) -> tuple[MetValue, MetValue]:
    value = random_src_value(rng, 2, 100)
    program = random_src_expr(rng, shape_of(value), depth=4, magnitude_bound=100)
    return embed_src_expr(program), embed_src_value(value)


CORPUS: list[CorpusEntry] = [
    CorpusEntry(
        "sum_of_halves",
        parse_met("fun x -> fst x + snd x"),
        _int_pair,
    ),
    CorpusEntry(
        "swap",
        parse_met("fun x -> (snd x, fst x)"),
        _int_pair,
    ),
    CorpusEntry(
        "static_dispatch",
        parse_met("fun x -> match fst x with | Num(n) -> n + snd x | X -> snd x"),
        lambda rng: (_num_or_x(rng), _int(rng)),
    ),
    CorpusEntry(
        "let_chain",
        parse_met("fun x -> let a = fst x in let b = snd x in a * b + a"),
        _int_pair,
    ),
    CorpusEntry(
        "constant_fold",
        parse_met("fun x -> (2 + 3) * fst x + snd x"),
        _int_pair,
    ),
    CorpusEntry(
        "list_length",
        parse_met(
            "fun x -> (let rec len l = match l with | X -> 0 | Pair(h, t) -> 1 + len t"
            " in len (fst x)) + snd x"
        ),
        lambda rng: (_int_list(rng), _int(rng)),
    ),
    CorpusEntry(
        "dynamic_int_match",
        parse_met("fun x -> match snd x with | 0 -> fst x | _ -> snd x * fst x"),
        lambda rng: (_int(rng), VInt(rng.choice([0, rng.randint(-50, 50)]))),
    ),
    CorpusEntry(
        "tuple_pattern",
        parse_met("fun x -> match x with | (a, b) -> a + b"),
        _int_pair,
    ),
    CorpusEntry(
        "dynamic_constructor_match",
        parse_met("fun x -> match snd x with | Num(n) -> n + fst x | X -> fst x"),
        lambda rng: (_int(rng), _num_or_x(rng)),
    ),
    CorpusEntry(
        "half_known_match",
        # The second component is unknown, so the whole match residualizes.
        parse_met("fun x -> match x with | (k, 0) -> k | (k, d) -> k * d"),
        _int_pair,
    ),
    CorpusEntry(
        "beta_redex",
        parse_met("fun x -> (fun y -> y + snd x) (fst x)"),
        _int_pair,
    ),
    CorpusEntry(
        "nested_projection",
        parse_met("fun x -> fst (snd x) + snd (snd x) * fst x"),
        lambda rng: (_int(rng), VTuple(_int(rng), _int(rng))),
    ),
    CorpusEntry(
        "analyzer_on_single_interpreter",
        build_abstract_interpreter(),
        _encoded_target_run("single"),
        INTERVAL,
    ),
    CorpusEntry(
        "analyzer_on_seq2_interpreter",
        build_abstract_interpreter(),
        _encoded_target_run("seq2"),
        SIGN,
    ),
    CorpusEntry(
        "analyzer_on_random_programs",
        build_abstract_interpreter(),
        _random_src_run,
        INTERVAL,
    ),
    CorpusEntry(
        "catch_all_before_constructor",
        # The catch-all, not the later Num branch, takes a known Num.
        parse_met("fun x -> match fst x with | X -> 0 | v -> snd x | Num(n) -> n"),
        lambda rng: (_num_or_x(rng), _int(rng)),
    ),
]
