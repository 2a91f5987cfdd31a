"""Retargeting pipeline: residual shape, analysis agreement, reports."""

from __future__ import annotations

import json

import pytest

from retargeter.analyzer import analyze_meta
from retargeter.domains import (
    APair,
    INTERVAL,
    Interval,
    Num,
    SIGN,
    Sign,
    SignSet,
    TOP,
    contains,
)
from retargeter.met.parser import parse_met
from retargeter.met.printer import print_met
from retargeter.retargeting import (
    Report,
    bench_steps,
    check_equivalence,
    check_soundness,
    retarget,
    run_specialized,
    run_specialized_abstract,
)
from retargeter.srclang import SInt, SPair
from retargeter.tgtlang import (
    encode_tgt_program,
    encode_tgt_value,
    interpreter_fixture,
    parse_tgt_program,
)

# Node census of the specialized single-instruction analyzer: all
# interpretive dispatch gone, exactly one abstract operation per piece
# of the interpreter's logic, and an extraction for the input and for
# the literal 0 in the opcode test.
GOLDEN_SINGLE_CENSUS = {
    "Match": 0,
    "AEQ": 1,
    "AADD": 1,
    "AMUL": 1,
    "AJOIN": 1,
    "AFILTER_NE0": 1,
    "AFILTER_EQ0": 1,
    "ETA": 2,
}

# Derived by construction: the seq2 interpreter duplicates the first
# step's expression (the source language has no let), so specialization
# processes the inner step once per branch of the outer dispatch.
SEQ2_CENSUS = {
    "Match": 0,
    "AEQ": 3,
    "AADD": 3,
    "AMUL": 3,
    "AJOIN": 3,
    "AFILTER_NE0": 3,
    "AFILTER_EQ0": 3,
    "ETA": 4,
}

# The printed residuals, which do not depend on the domain, and the mean
# residual and meta-level steps per analysis that ``bench_steps`` reports
# at 200 trials, seed 0.  Any change to either is a semantic change.
GOLDEN_RESIDUALS = {
    "single": (
        "fun i -> let iabs = eta(i) in let p = aeq(fst fst iabs, eta(0)) in "
        "ajoin(fne0(p, aadd(snd fst iabs, snd iabs)), feq0(p, amul(snd fst iabs, snd iabs)))"
    ),
    "seq2": (
        "fun i -> let iabs = eta(i) in let p = aeq(fst snd fst iabs, eta(0)) in "
        "ajoin(fne0(p, aadd(snd snd fst iabs, let p1 = aeq(fst fst fst iabs, eta(0)) in "
        "ajoin(fne0(p1, aadd(snd fst fst iabs, snd iabs)), "
        "feq0(p1, amul(snd fst fst iabs, snd iabs))))), "
        "feq0(p, amul(snd snd fst iabs, let p2 = aeq(fst fst fst iabs, eta(0)) in "
        "ajoin(fne0(p2, aadd(snd fst fst iabs, snd iabs)), "
        "feq0(p2, amul(snd fst fst iabs, snd iabs))))))"
    ),
}
GOLDEN_MEAN_STEPS = {"single": (29, 198), "seq2": (82, 628)}


class TestGolden:
    @pytest.mark.parametrize("domain", [INTERVAL, SIGN], ids=["interval", "sign"])
    @pytest.mark.parametrize("target", ["single", "seq2"])
    def test_residual_text(self, target, domain):
        assert print_met(retarget(target, domain).residual) == GOLDEN_RESIDUALS[target]

    @pytest.mark.parametrize("domain", [INTERVAL, SIGN], ids=["interval", "sign"])
    @pytest.mark.parametrize("target", ["single", "seq2"])
    def test_mean_steps(self, target, domain):
        report = bench_steps(domain, target, trials=200, seed=0)
        assert (report.mean_spec_steps, report.mean_meta_steps) == GOLDEN_MEAN_STEPS[target]


class TestResidualShape:
    def test_golden_single_census(self):
        analyzer = retarget("single", INTERVAL)
        counts = analyzer.stats().counts
        for key, expected in GOLDEN_SINGLE_CENSUS.items():
            assert counts.get(key, 0) == expected, key

    def test_seq2_census(self):
        analyzer = retarget("seq2", SIGN)
        counts = analyzer.stats().counts
        for key, expected in SEQ2_CENSUS.items():
            assert counts.get(key, 0) == expected, key

    @pytest.mark.parametrize("target", ["single", "seq2"])
    def test_residual_purity(self, target):
        analyzer = retarget(target, INTERVAL)
        counts = analyzer.stats().counts
        assert counts.get("Match", 0) == 0
        assert counts.get("Construct", 0) == 0
        assert not analyzer.stats().has_match

    def test_deterministic(self):
        assert retarget("single", INTERVAL).residual == retarget("single", INTERVAL).residual

    def test_residual_round_trips_through_text(self):
        analyzer = retarget("seq2", INTERVAL)
        assert parse_met(print_met(analyzer.residual)) == analyzer.residual

    def test_provenance(self):
        analyzer = retarget("single", INTERVAL)
        assert analyzer.target == "single"
        assert analyzer.domain is INTERVAL


class TestRunSpecialized:
    def test_interval_add(self):
        analyzer = retarget("single", INTERVAL)
        assert run_specialized(analyzer, parse_tgt_program("add 42"), 5) == Num(Interval(47, 47))

    def test_interval_mul_zero(self):
        analyzer = retarget("single", INTERVAL)
        assert run_specialized(analyzer, parse_tgt_program("mul 42"), 0) == Num(Interval(0, 0))

    def test_sign_negation(self):
        analyzer = retarget("single", SIGN)
        got = run_specialized(analyzer, parse_tgt_program("mul -1"), 7)
        assert contains(got, SInt(-7))

    def test_target_mismatch_is_rejected(self):
        analyzer = retarget("single", INTERVAL)
        with pytest.raises(ValueError):
            run_specialized(analyzer, parse_tgt_program("add 1 ; add 2"), 0)

    def test_agrees_with_meta_analysis(self):
        analyzer = retarget("seq2", INTERVAL)
        program = parse_tgt_program("add 1 ; mul 3")
        got = run_specialized(analyzer, program, 4)
        meta = analyze_meta(
            INTERVAL, interpreter_fixture("seq2"),
            SPair(encode_tgt_program(program), encode_tgt_value(4)),
        )
        assert got == meta == Num(Interval(15, 15))


class TestRunSpecializedAbstract:
    def test_interval_hull(self):
        analyzer = retarget("single", INTERVAL)
        got = run_specialized_abstract(analyzer, parse_tgt_program("add 42"), Num(Interval(0, 10)))
        assert got == Num(Interval(42, 52))

    def test_adding_zero_is_identity(self):
        analyzer = retarget("single", INTERVAL)
        got = run_specialized_abstract(analyzer, parse_tgt_program("add 0"), Num(Interval(-3, 9)))
        assert got == Num(Interval(-3, 9))

    def test_mul_zero_contains_zero(self):
        analyzer = retarget("single", SIGN)
        got = run_specialized_abstract(analyzer, parse_tgt_program("mul 0"), Num(SignSet.top()))
        assert contains(got, SInt(0))

    @pytest.mark.parametrize("domain, abstract_input, other", [
        (SIGN, Num(Interval(1, 2)), "interval"),
        (INTERVAL, Num(SignSet.of(Sign.POS)), "sign"),
        (SIGN, APair(Num(Interval(1, 2)), TOP), "interval"),
        (INTERVAL, APair(TOP, Num(SignSet.top())), "sign"),
    ], ids=["interval-into-sign", "sign-into-interval", "nested-interval", "nested-sign"])
    def test_input_of_the_other_domain_is_rejected(self, domain, abstract_input, other):
        analyzer = retarget("single", domain)
        message = f"of the '{other}' domain but the analysis is of the '{domain.name}' domain"
        with pytest.raises(ValueError, match=message):
            run_specialized_abstract(analyzer, parse_tgt_program("add 1"), abstract_input)

    def test_agrees_with_meta_analysis_on_abstract_inputs(self):
        import random

        from retargeter.analyzer import abstract_target_input, analyze_meta_abstract
        from retargeter.tgtlang import random_tgt_program

        rng = random.Random(41)
        for target in ["single", "seq2"]:
            analyzer = retarget(target, INTERVAL)
            fixture = interpreter_fixture(target)
            for _ in range(100):
                program = random_tgt_program(rng, target, 100)
                lo = rng.randint(-50, 50)
                abstract = Num(Interval(lo, lo + rng.randint(0, 20)))
                spec = run_specialized_abstract(analyzer, program, abstract)
                meta = analyze_meta_abstract(
                    INTERVAL, fixture,
                    abstract_target_input(INTERVAL, encode_tgt_program(program), abstract),
                )
                assert spec == meta, (target, program, abstract)

    def test_abstract_run_covers_every_member(self):
        import random

        from retargeter.tgtlang import eval_tgt, random_tgt_program

        rng = random.Random(43)
        analyzer = retarget("seq2", INTERVAL)
        for _ in range(100):
            program = random_tgt_program(rng, "seq2", 50)
            lo = rng.randint(-10, 10)
            hi = lo + rng.randint(0, 6)
            got = run_specialized_abstract(analyzer, program, Num(Interval(lo, hi)))
            for i in range(lo, hi + 1):
                assert contains(got, SInt(eval_tgt(program, i))), (program, lo, hi, i)


class TestHarnesses:
    @pytest.mark.parametrize("target", ["single", "seq2"])
    @pytest.mark.parametrize("domain", [INTERVAL, SIGN], ids=["interval", "sign"])
    def test_equivalence(self, domain, target):
        report = check_equivalence(domain, target, trials=150, seed=7)
        assert report.ok, report.failures[:3]

    @pytest.mark.parametrize("target", ["single", "seq2"])
    @pytest.mark.parametrize("domain", [INTERVAL, SIGN], ids=["interval", "sign"])
    def test_soundness(self, domain, target):
        report = check_soundness(domain, target, trials=150, seed=7)
        assert report.ok, report.failures[:3]

    def test_soundness_at_extreme_magnitudes(self):
        report = check_soundness(INTERVAL, "seq2", trials=150, seed=11,
                                 magnitude=2**63)
        assert report.ok

    def test_bench_dominance_and_ratio(self):
        report = bench_steps(INTERVAL, "single", trials=80, seed=3)
        assert report.ok
        assert report.ratio is not None and report.ratio > 1
        assert report.mean_spec_steps < report.mean_meta_steps

    def test_seq2_removes_more_overhead(self):
        single = bench_steps(INTERVAL, "single", trials=80, seed=3)
        seq2 = bench_steps(INTERVAL, "seq2", trials=80, seed=3)
        assert seq2.ratio >= single.ratio

    def test_zero_trials_empty_report(self):
        report = check_soundness(INTERVAL, "single", trials=0, seed=0)
        assert report.ok and report.trials == 0 and report.failures == []
        assert report.ratio is None

    def test_reproducible(self):
        a = check_equivalence(SIGN, "single", trials=25, seed=99)
        b = check_equivalence(SIGN, "single", trials=25, seed=99)
        assert a.as_dict() == b.as_dict()

    def test_report_serialization(self):
        report = bench_steps(SIGN, "seq2", trials=10, seed=0)
        payload = json.loads(json.dumps(report.as_dict()))
        assert set(payload) == {
            "kind", "domain", "target", "trials", "seed", "failures",
            "mean_meta_steps", "mean_spec_steps", "ratio",
        }
        assert "bench" in report.to_text()

    def test_report_text_without_a_ratio(self):
        # A report whose residual took no steps has no ratio to print.
        report = Report("bench", "interval", "single", 9, 7, failures=[{"trial": 2}])
        assert report.ratio is None
        assert report.to_text().splitlines()[1] == (
            "  mean steps: meta=0.0 specialized=0.0 ratio=n/a")
        assert json.loads(json.dumps(report.as_dict()))["ratio"] is None

    def test_failures_are_reported_not_raised(self):
        # A stricter-than-possible judgement must produce report entries.
        report = bench_steps(INTERVAL, "single", trials=5, seed=0)
        report.failures.append({"trial": -1})
        assert not report.ok
