"""Acceptance suite.

One test per criterion, each printing a PASS line (visible with
``pytest -s`` or on failure).  Trial counts and runtime limits are fixed
here; run with ``pytest tests/test_acceptance.py -v``.
"""

from __future__ import annotations

import random
import time

from retargeter.analyzer import abstract_target_input, analyze_meta, analyze_meta_abstract
from retargeter.domains import (
    BOT,
    INTERVAL,
    Interval,
    Num,
    SIGN,
    Sign,
    SignSet,
    TOP,
    abs_add,
    abs_eq,
    abs_mul,
    contains,
    eta_met_value,
    filter_nonzero,
    filter_zero,
    join,
    leq,
    make_pair,
    sample_member,
)
from retargeter.met.interp import apply_met_function
from retargeter.met.syntax import EvalBudget, VTuple
from retargeter.peval import specialize
from retargeter.retargeting import (
    bench_steps,
    check_equivalence,
    check_soundness,
    retarget,
)
from retargeter.srclang import SInt, SPair, eval_src
from retargeter.tgtlang import (
    encode_tgt_program,
    encode_tgt_value,
    eval_tgt,
    interpreter_fixture,
    parse_tgt_program,
    random_tgt_program,
)

from corpus import CORPUS

DOMAINS = [SIGN, INTERVAL]
TARGETS = ["single", "seq2"]


def announce(number: int, description: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\ncriterion {number} ({description}): PASS in {elapsed:.2f}s")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def test_criterion_1_concrete_interpreter_correctness():
    started = time.perf_counter()
    rng = random.Random(1001)
    for target in TARGETS:
        fixture = interpreter_fixture(target)
        for _ in range(1000):
            program = random_tgt_program(rng, target, 10**6)
            value = rng.randint(-10**6, 10**6)
            interpreted = eval_src(
                fixture, SPair(encode_tgt_program(program), encode_tgt_value(value))
            )
            assert interpreted == encode_tgt_value(eval_tgt(program, value))
    announce(1, "definitional interpreters agree with target semantics", started, 5.0)


def test_criterion_2_meta_level_soundness():
    started = time.perf_counter()
    rng = random.Random(1002)
    for domain in DOMAINS:
        for target in TARGETS:
            fixture = interpreter_fixture(target)
            for _ in range(1000):
                program = random_tgt_program(rng, target)
                value = rng.randint(-1000, 1000)
                result = analyze_meta(
                    domain, fixture,
                    SPair(encode_tgt_program(program), encode_tgt_value(value)),
                )
                concrete = encode_tgt_value(eval_tgt(program, value))
                assert contains(result, concrete), (domain.name, target, program, value)
    announce(2, "meta-level analysis contains every concrete run", started, 30.0)


def test_criterion_3_specialization_preserves_semantics():
    started = time.perf_counter()
    assert len(CORPUS) >= 10
    for entry in CORPUS:
        rng = random.Random(1003)
        for _ in range(100):
            i1, i2 = entry.gen(rng)
            residual = specialize(entry.expr, i1)
            specialized = apply_met_function(residual, i2, entry.domain, EvalBudget())
            direct = apply_met_function(entry.expr, VTuple(i1, i2), entry.domain,
                                        EvalBudget())
            assert specialized == direct, (entry.name, i1, i2)
    announce(3, "specialize-then-run equals run-unspecialized on the corpus",
             started, 60.0)


def test_criterion_4_retargeted_soundness_and_equivalence():
    started = time.perf_counter()
    for domain in DOMAINS:
        for target in TARGETS:
            sound = check_soundness(domain, target, trials=1000, seed=1004)
            assert sound.ok, sound.failures[:3]
            equal = check_equivalence(domain, target, trials=1000, seed=1004)
            assert equal.ok, equal.failures[:3]
    announce(4, "retargeted analyzer is sound and equals meta-level analysis",
             started, 60.0)


def test_criterion_5_golden_residual():
    started = time.perf_counter()
    golden = {
        "Match": 0, "AEQ": 1, "AADD": 1, "AMUL": 1, "AJOIN": 1,
        "AFILTER_NE0": 1, "AFILTER_EQ0": 1, "ETA": 2,
    }
    first = retarget("single", INTERVAL)
    second = retarget("single", INTERVAL)
    assert first.residual == second.residual
    counts = first.stats().counts
    for key, expected in golden.items():
        assert counts.get(key, 0) == expected, key
    announce(5, "single-target residual matches the golden census", started, 10.0)


def test_criterion_6_worked_example_values():
    started = time.perf_counter()
    program = parse_tgt_program("add 42")
    fixture = interpreter_fixture("single")

    # Independent oracle: brute-force hull of the concrete outputs.
    outputs = [eval_tgt(program, i) for i in range(0, 11)]
    hull = Num(Interval(min(outputs), max(outputs)))
    assert hull == Num(Interval(42, 52))

    abstract_in = abstract_target_input(
        INTERVAL, encode_tgt_program(program), Num(Interval(0, 10))
    )
    assert analyze_meta_abstract(INTERVAL, fixture, abstract_in) == hull

    concrete_oracle = eval_tgt(program, 5)
    assert concrete_oracle == 47
    got = analyze_meta(
        INTERVAL, fixture,
        SPair(encode_tgt_program(program), encode_tgt_value(5)),
    )
    assert got == Num(Interval(concrete_oracle, concrete_oracle))
    announce(6, "worked-example analyses give [42,52] and [47,47]", started, 10.0)


def test_criterion_7_overhead_elimination():
    started = time.perf_counter()
    ratios = {}
    for domain in DOMAINS:
        for target in TARGETS:
            report = bench_steps(domain, target, trials=250, seed=1007)
            assert report.ok, report.failures[:3]  # strict dominance, every trial
            ratios[(domain.name, target)] = report.ratio
    summary = ", ".join(f"{d}/{t}: {r:.2f}x" for (d, t), r in ratios.items())
    print(f"\nstep ratios (meta / specialized): {summary}")
    announce(7, "specialized analysis uses strictly fewer steps", started, 60.0)


# --- criterion 8: domain lattice laws at scale ------------------------------

CASES_PER_LAW = 10_000


def _random_num(rng: random.Random, domain):
    if domain is SIGN:
        signs = rng.sample(list(Sign), rng.randint(1, 3))
        return SignSet(frozenset(signs))
    lo = None if rng.random() < 0.15 else rng.randint(-1000, 1000)
    hi = None if rng.random() < 0.15 else rng.randint(-1000, 1000)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


def _random_abs(rng: random.Random, domain, depth: int = 2):
    roll = rng.random()
    if roll < 0.05:
        return BOT
    if roll < 0.10:
        return TOP
    if depth > 0 and roll < 0.30:
        return make_pair(_random_abs(rng, domain, depth - 1),
                         _random_abs(rng, domain, depth - 1))
    return Num(_random_num(rng, domain))


def test_criterion_8_domain_lattice_laws():
    started = time.perf_counter()
    for domain in DOMAINS:
        rng = random.Random(1008)

        for _ in range(CASES_PER_LAW):  # extraction soundness
            from retargeter.srclang import embed_src_value, random_src_value

            v = random_src_value(rng, 2, 10**6)
            assert contains(eta_met_value(embed_src_value(v), domain), v)

        for _ in range(CASES_PER_LAW):  # join is an upper bound
            a, b = _random_abs(rng, domain), _random_abs(rng, domain)
            j = join(a, b)
            assert leq(a, j) and leq(b, j)

        for _ in range(CASES_PER_LAW):  # order implies membership inclusion
            a, b = _random_abs(rng, domain), _random_abs(rng, domain)
            if leq(a, b):
                member = sample_member(a, rng)
                if member is not None:
                    assert contains(b, member)

        for op_abs, op in [
            (abs_add, lambda x, y: x + y),
            (abs_mul, lambda x, y: x * y),
            (abs_eq, lambda x, y: 1 if x == y else 0),
        ]:
            for _ in range(CASES_PER_LAW):  # operator soundness
                a, b = _random_abs(rng, domain), _random_abs(rng, domain)
                va, vb = sample_member(a, rng), sample_member(b, rng)
                if not (isinstance(va, SInt) and isinstance(vb, SInt)):
                    continue  # the concrete operator is undefined
                result = op_abs(a, b, domain)
                assert contains(result, SInt(op(va.value, vb.value)))

        for _ in range(CASES_PER_LAW):  # filter soundness, both polarities
            pred = Num(_random_num(rng, domain))
            v = _random_abs(rng, domain)
            p, member = sample_member(pred, rng), sample_member(v, rng)
            if member is None:
                continue
            if p.value != 0:
                assert contains(filter_nonzero(pred, v), member)
            else:
                assert contains(filter_zero(pred, v), member)
    announce(8, "lattice and operator soundness laws at 10k cases per law",
             started, 60.0)
