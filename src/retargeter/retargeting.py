"""The headline pipeline: specialize the abstract interpreter to a
definitional interpreter, yielding an analyzer for the interpreted
language, plus the harnesses that check it.

``retarget`` partially evaluates the abstract source-language
interpreter with respect to an encoded target interpreter.  The residual
is a direct abstract interpreter for the target: the dispatch on the
interpreter's AST is gone, only abstract operations remain.

The harnesses check, over random programs and inputs, that the residual
agrees exactly with meta-level analysis (``check_equivalence``), that it
contains every concrete result (``check_soundness``), and that it is
strictly cheaper to run (``bench_steps``).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from .analyzer import (
    analyze_meta_target,
    build_abstract_interpreter,
    check_domain,
    target_argument,
)
from .domains import AbsValue, Num, NumericDomain, contains, format_abs, met_value_to_abs
from .met.interp import apply_met_function
from .met.syntax import EvalBudget, MetExpr, record
from .peval import residual_stats, specialize
from .srclang import embed_src_expr
from .tgtlang import (
    TgtProgram,
    check_target,
    encode_tgt_value,
    eval_tgt,
    interpreter_fixture,
    print_tgt_program,
    random_tgt_program,
    target_of,
)


@record
class RetargetedAnalyzer:
    """A residual analyzer for one target language.

    ``residual`` is a closed one-argument function over the encoded
    ``(program, input)`` pair, derived from the definitional interpreter
    ``interpreter_fixture(target)``.
    """

    residual: MetExpr
    domain: NumericDomain
    target: str

    def stats(self):
        return residual_stats(self.residual)


def retarget(target: str, domain: NumericDomain) -> RetargetedAnalyzer:
    """Derive an analyzer for ``target`` by specializing the abstract
    interpreter to that target's definitional interpreter."""
    check_target(target)
    fixture = interpreter_fixture(target)
    residual = specialize(build_abstract_interpreter(), embed_src_expr(fixture))
    return RetargetedAnalyzer(residual, domain, target)


def run_specialized(analyzer: RetargetedAnalyzer, p: TgtProgram, i: int,
                    budget: EvalBudget | None = None) -> AbsValue:
    """Analyze a program on a concrete input with the residual.  The input
    is its singleton abstraction: the residual abstracts its argument
    before anything else, so both give the same result in the same steps."""
    return run_specialized_abstract(analyzer, p, Num(analyzer.domain.eta_int(i)), budget)


def run_specialized_abstract(analyzer: RetargetedAnalyzer, p: TgtProgram,
                             abstract_input: AbsValue,
                             budget: EvalBudget | None = None) -> AbsValue:
    """Analyze a program on an abstract input with the residual."""
    _check_program(analyzer, p)
    arg = target_argument(p, check_domain(abstract_input, analyzer.domain))
    return met_value_to_abs(apply_met_function(analyzer.residual, arg, analyzer.domain, budget))


def _check_program(analyzer: RetargetedAnalyzer, p: TgtProgram) -> None:
    if target_of(p) != analyzer.target:
        raise ValueError(
            f"program is a {target_of(p)!r} program but the analyzer targets {analyzer.target!r}"
        )


# ---------------------------------------------------------------------------
# Harnesses
# ---------------------------------------------------------------------------


# The harnesses' default magnitude, which the command-line front end uses.
MAGNITUDE = 1000

# The command that runs each kind of harness.
_COMMANDS = {"soundness": "check", "equivalence": "check", "bench": "bench"}


@dataclass
class Report:
    """Outcome of a randomized harness run; JSON-stable field set."""

    kind: str
    domain: str
    target: str
    trials: int
    seed: int
    failures: list[dict] = field(default_factory=list)
    mean_meta_steps: float = 0.0
    mean_spec_steps: float = 0.0
    ratio: float | None = None
    # Not a field, so not in the JSON: the bound on drawn operands.
    magnitude = MAGNITUDE

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        lines = [
            f"{self.kind}: domain={self.domain} target={self.target} "
            f"trials={self.trials} seed={self.seed} -> {status}"
        ]
        if self.trials:
            ratio = "n/a" if self.ratio is None else f"{self.ratio:.2f}"
            lines.append(
                f"  mean steps: meta={self.mean_meta_steps:.1f} "
                f"specialized={self.mean_spec_steps:.1f} ratio={ratio}"
            )
        for failure in self.failures[:10]:
            replay = self.replay_command(failure["trial"])
            replay = f" (replay: {replay})" if replay else ""
            lines.append(f"  FAIL trial {failure['trial']}{replay}: {failure}")
        return "\n".join(lines)

    def replay_command(self, trial: int) -> str | None:
        """The command line whose run ends with ``trial``, or None if the
        command line cannot draw this run's trials.  Trials draw from one
        seeded generator in order, so a run of ``trial + 1`` trials with
        the same seed repeats this run's trials up to ``trial``."""
        if self.magnitude != MAGNITUDE:
            return None
        return (f"retargeter {_COMMANDS[self.kind]} --domain {self.domain} "
                f"--target {self.target} --seed {self.seed} --trials {trial + 1}")


def _harness(kind: str, domain: NumericDomain, target: str, trials: int, seed: int,
             magnitude: int, judge) -> Report:
    """Shared trial loop: run meta-level and specialized analyses on the
    same random (program, input) pairs and let ``judge`` flag failures."""
    check_target(target)
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    analyzer = retarget(target, domain)
    rng = random.Random(seed)
    report = Report(kind, domain.name, target, trials, seed)
    report.magnitude = magnitude
    meta_total = spec_total = 0
    for trial in range(trials):
        program = random_tgt_program(rng, target, magnitude)
        value = rng.randint(-magnitude, magnitude)
        meta_budget, spec_budget = EvalBudget(), EvalBudget()
        meta = analyze_meta_target(domain, program, value, meta_budget)
        spec = run_specialized(analyzer, program, value, spec_budget)
        meta_total += meta_budget.steps_used
        spec_total += spec_budget.steps_used
        problem = judge(program, value, meta, spec, meta_budget, spec_budget)
        if problem is not None:
            report.failures.append({
                "trial": trial,
                "program": print_tgt_program(program),
                "input": value,
                **problem,
            })
    if trials:
        report.mean_meta_steps = meta_total / trials
        report.mean_spec_steps = spec_total / trials
        report.ratio = meta_total / spec_total if spec_total else None
    return report


def check_equivalence(domain: NumericDomain, target: str, trials: int = 1000,
                      seed: int = 0, magnitude: int = MAGNITUDE) -> Report:
    """Specialized and meta-level analyses must agree structurally."""

    def judge(program, value, meta, spec, mb, sb):
        if spec != meta:
            return {"meta": format_abs(meta), "specialized": format_abs(spec)}
        return None

    return _harness("equivalence", domain, target, trials, seed, magnitude, judge)


def check_soundness(domain: NumericDomain, target: str, trials: int = 1000,
                    seed: int = 0, magnitude: int = MAGNITUDE) -> Report:
    """The concrete result must be a member of the analyzed result."""

    def judge(program, value, meta, spec, mb, sb):
        concrete = encode_tgt_value(eval_tgt(program, value))
        if not contains(spec, concrete):
            return {"concrete": repr(concrete), "specialized": format_abs(spec)}
        return None

    return _harness("soundness", domain, target, trials, seed, magnitude, judge)


def bench_steps(domain: NumericDomain, target: str, trials: int = 1000,
                seed: int = 0, magnitude: int = MAGNITUDE) -> Report:
    """The residual must use strictly fewer evaluation steps per trial."""

    def judge(program, value, meta, spec, meta_budget, spec_budget):
        if spec_budget.steps_used >= meta_budget.steps_used:
            return {"meta_steps": meta_budget.steps_used,
                    "spec_steps": spec_budget.steps_used}
        return None

    return _harness("bench", domain, target, trials, seed, magnitude, judge)
