"""The four workloads: inputs generated from a seed, one op per item,
and an output check per op that runs outside the timed region.

A workload builds what every pass shares in ``setup``, and ``pool``,
the items of the untimed first pass; ``make_pool`` draws the items of
each later pass from the seed and the pass number.  ``op`` is the timed
call into the package; ``check`` returns how many of the op's units
failed (an op is one unit, except a harness call, which is one unit per
trial).  ``summary`` gives the deterministic counts, measured on the
first pass: evaluation steps per analysis, meta/residual step ratio and
residual size; ``pin_table`` gives the steps per analysis for each
target and domain.

Every call into the package goes through a module attribute
(``retargeting.run_specialized``, not a name imported here), so that a
traced run sees it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from retargeter import analyzer, cli, domains, peval, retargeting, srclang, tgtlang
from retargeter.errors import ParseError
from retargeter.met import interp, parser, printer
from retargeter.met.syntax import EvalBudget, PrimOp, VAbs, VTuple

DOMAINS = tuple(domains.DOMAINS.values())
PAIRS = tuple((target, domain) for target in tgtlang.TARGETS for domain in DOMAINS)
# The order in which ops cycle through the pairs: two seq2 ops per single
# one.  With equal shares the median op falls in the gap between the two
# targets' costs, and the median jumps from run to run.
MIX = PAIRS + tuple(p for p in PAIRS if p[0] == "seq2")
MAGNITUDE = 1000


def residual_nodes(expr) -> int:
    """AST nodes of a residual (primitive-operator keys are not nodes)."""
    counts = peval.residual_stats(expr).counts
    return sum(n for kind, n in counts.items() if kind not in PrimOp.__members__)


def src_size(e: srclang.SrcExpr) -> int:
    return 1 + sum(src_size(child) for child in
                   (getattr(e, f.name) for f in dataclasses.fields(e))
                   if isinstance(child, srclang.SrcExpr))


def random_abs_input(rng: random.Random, domain) -> domains.AbsValue:
    """A random interval (sometimes half-unbounded) or nonempty sign set."""
    if domain is domains.INTERVAL:
        lo = rng.randint(-MAGNITUDE, MAGNITUDE)
        shape = rng.random()
        if shape < 0.1:
            return domains.Num(domains.Interval(None, lo))
        if shape < 0.2:
            return domains.Num(domains.Interval(lo, None))
        return domains.Num(domains.Interval(lo, lo + rng.randint(0, 200)))
    signs = [s for s in domains.Sign if rng.random() < 0.5] or [rng.choice(list(domains.Sign))]
    return domains.Num(domains.SignSet(frozenset(signs)))


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


class Workload:
    """Shared bookkeeping: verdicts and step records."""

    name = ""
    units = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.problems: list[str] = []
        # Steps are recorded only while this is set: on the untimed first
        # pass, so the counts do not depend on how many passes fit.
        self.recording = True
        # (target, domain name) -> lists of residual and meta steps.
        self.pins: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
        # (residual, meta) steps of analyses of the same input.
        self.steps: list[tuple[float, float]] = []

    def setup(self) -> None:
        """Build what every pass shares, and ``pool``, the first pass."""
        raise NotImplementedError

    def rng(self, pass_no: int) -> random.Random:
        return random.Random(f"{self.seed}/{pass_no}")

    def make_pool(self, pass_no: int) -> list:
        """The items of one pass, drawn from the seed and the pass number."""
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def verify(self, item, out) -> str | None:
        """Full check of one output; a problem description or None."""
        raise NotImplementedError

    def failed_units(self, out) -> int:
        """Units lost when ``out`` fails its check."""
        return self.units

    def check(self, item, out) -> int:
        """Failed units of one op."""
        problem = self.verify(item, out)
        if problem is None:
            return 0
        self.problems.append(f"{self.name} item {item.index}: {problem}")
        return self.failed_units(out)

    def record_steps(self, target: str | None, domain, residual, meta) -> None:
        if not self.recording:
            return
        if residual is not None and meta is not None:
            self.steps.append((residual, meta))
        if target is not None:
            res, met = self.pins.setdefault((target, domain.name), ([], []))
            if residual is not None:
                res.append(residual)
            if meta is not None:
                met.append(meta)

    def pin_table(self) -> dict[tuple[str, str], tuple[float, float]]:
        return {key: (mean(res), mean(met)) for key, (res, met) in sorted(self.pins.items())}

    def residual_nodes(self) -> float:
        raise NotImplementedError

    def summary(self) -> dict[str, float]:
        residual = sum(r for r, _ in self.steps)
        return {"steps_per_op": residual / len(self.steps),
                "step_ratio": sum(m for _, m in self.steps) / residual,
                "residual_nodes": self.residual_nodes()}


# ---------------------------------------------------------------------------
# residual: the derived analyzers in use
# ---------------------------------------------------------------------------


@dataclass
class AnalysisItem:
    index: int
    target: str
    domain: object
    program: object
    value: object          # an int, or an abstract value
    member: int            # the concrete input checked for containment

    @property
    def concrete(self) -> bool:
        return isinstance(self.value, int)


def draw_input(rng: random.Random, domain, concrete: bool) -> tuple[object, int]:
    """A concrete or abstract input and the concrete member to check."""
    if concrete:
        value = rng.randint(-MAGNITUDE, MAGNITUDE)
        return value, value
    value = random_abs_input(rng, domain)
    return value, domains.sample_member(value, rng, MAGNITUDE).value


def analysis_pool(rng: random.Random, size: int) -> list[AnalysisItem]:
    """Target x domain pairs in the shares of ``MIX``, alternating
    concrete and abstract inputs."""
    pool = []
    for index in range(size):
        target, domain = MIX[index % len(MIX)]
        program = tgtlang.random_tgt_program(rng, target, MAGNITUDE)
        concrete = (index // len(MIX)) % 2 == 0
        pool.append(AnalysisItem(index, target, domain, program,
                                 *draw_input(rng, domain, concrete)))
    return pool


def meta_reference(item: AnalysisItem) -> tuple[domains.AbsValue, int]:
    """Meta-level analysis of the item's program and input, with its steps."""
    fixture = tgtlang.interpreter_fixture(item.target)
    encoded = tgtlang.encode_tgt_program(item.program)
    budget = EvalBudget()
    if item.concrete:
        arg = srclang.SPair(encoded, tgtlang.encode_tgt_value(item.value))
        result = analyzer.analyze_meta(item.domain, fixture, arg, budget)
    else:
        arg = analyzer.abstract_target_input(item.domain, encoded, item.value)
        result = analyzer.analyze_meta_abstract(item.domain, fixture, arg, budget)
    return result, budget.steps_used


def judge_analysis(item: AnalysisItem, result, meta) -> str | None:
    concrete = tgtlang.encode_tgt_value(tgtlang.eval_tgt(item.program, item.member))
    if result != meta:
        return f"result {result} differs from meta-level {meta}"
    if not domains.contains(result, concrete):
        return f"result {result} excludes the concrete result {concrete} of input {item.member}"
    return None


class Residual(Workload):
    name = "residual"
    pool_size = 504    # a whole number of concrete and abstract MIX cycles

    def setup(self) -> None:
        self.analyzers = {(t, d.name): retargeting.retarget(t, d) for t, d in PAIRS}
        self.pool = self.make_pool(0)

    def make_pool(self, pass_no):
        return analysis_pool(self.rng(pass_no), self.pool_size)

    def op(self, item: AnalysisItem):
        budget = EvalBudget()
        found = self.analyzers[item.target, item.domain.name]
        if item.concrete:
            result = retargeting.run_specialized(found, item.program, item.value, budget)
        else:
            result = retargeting.run_specialized_abstract(found, item.program, item.value, budget)
        return result, budget.steps_used

    def verify(self, item, out):
        result, steps = out
        meta, meta_steps = meta_reference(item)
        self.record_steps(item.target, item.domain, steps, meta_steps)
        return judge_analysis(item, result, meta)

    def residual_nodes(self):
        return mean([residual_nodes(a.residual) for a in self.analyzers.values()])


# ---------------------------------------------------------------------------
# harness: check_soundness + check_equivalence trial loops
# ---------------------------------------------------------------------------


@dataclass
class HarnessCall:
    index: int
    kind: str
    target: str
    domain: object
    seed: int


class Harness(Workload):
    name = "harness"
    # Trials per call, as the repo's own gate runs them
    # (tests/test_retarget.py); an op is one trial.  Each call also runs
    # retarget once, as the gate does.
    units = 150

    def setup(self) -> None:
        self.pool = self.make_pool(0)

    def make_pool(self, pass_no):
        """One call per kind and MIX entry, each with its own seed."""
        rng = self.rng(pass_no)
        combos = [(kind, t, d) for kind in ("soundness", "equivalence") for t, d in MIX]
        return [HarnessCall(k, kind, t, d, rng.randrange(2**32))
                for k, (kind, t, d) in enumerate(combos)]

    def op(self, call: HarnessCall):
        check = (retargeting.check_soundness if call.kind == "soundness"
                 else retargeting.check_equivalence)
        return check(call.domain, call.target, self.units, call.seed, MAGNITUDE)

    def verify(self, call, report):
        if report.trials != self.units:
            return f"ran {report.trials} trials"
        self.record_steps(call.target, call.domain, report.mean_spec_steps, report.mean_meta_steps)
        if report.failures:
            return f"{call.kind} {call.target}/{call.domain.name} seed {call.seed}: {report.failures}"
        return None

    def failed_units(self, report) -> int:
        if report.trials != self.units or not report.failures:
            return self.units
        return min(len(report.failures), self.units)

    def residual_nodes(self):
        return mean([residual_nodes(retargeting.retarget(t, d).residual) for t, d in PAIRS])


# ---------------------------------------------------------------------------
# compile: specialize, print and re-parse a corpus of source programs
# ---------------------------------------------------------------------------


@dataclass
class CompileItem:
    index: int
    program: srclang.SrcExpr
    inputs: list            # (domain, source value) pairs run in the check
    target: str | None      # the target whose interpreter this is, if any


# Source sizes 8..127 in sixteen quarter-octave buckets of equal count.
# Compile time and residual size follow program size, so drawing by
# depth alone lets the corpus's total work and its latency percentiles
# swing by 10-25% from one seed to the next; equal buckets hold that to
# a few percent.  Depths above 7 almost always overshoot 127 nodes and
# would only lengthen set-up.
SIZE_BUCKETS = range(12, 28)    # bucket k holds sizes with int(4 * log2(size)) == k


def compile_corpus(rng: random.Random, per_bucket: int) -> list[CompileItem]:
    buckets: dict[int, list] = {b: [] for b in SIZE_BUCKETS}
    while any(len(b) < per_bucket for b in buckets.values()):
        program = srclang.random_src_expr(rng, "int", rng.randint(3, 7))
        bucket = buckets.get(int(4 * math.log2(src_size(program))))
        if bucket is not None and len(bucket) < per_bucket:
            bucket.append(program)
    corpus = []
    for program in (p for b in buckets.values() for p in b):
        inputs = [(d, srclang.SInt(rng.randint(-100, 100))) for d in DOMAINS]
        corpus.append(CompileItem(len(corpus), program, inputs, None))
    for target in tgtlang.TARGETS:
        inputs = [(d, srclang.SPair(
                      tgtlang.encode_tgt_program(tgtlang.random_tgt_program(rng, target, MAGNITUDE)),
                      tgtlang.encode_tgt_value(rng.randint(-MAGNITUDE, MAGNITUDE))))
                  for d in DOMAINS for _ in range(2)]
        corpus.append(CompileItem(len(corpus), tgtlang.interpreter_fixture(target), inputs, target))
    return corpus


class Compile(Workload):
    name = "compile"
    # The first pass, which gives the counts, draws 63 programs per
    # bucket, so they move by about 2% from seed to seed; timed passes
    # draw 16, so a pass ends within about 2 s of the run's end.
    first_per_bucket = 63
    per_bucket = 16

    def setup(self) -> None:
        self.nodes: list[int] = []
        self.pool = self.make_pool(0)

    def make_pool(self, pass_no):
        return compile_corpus(self.rng(pass_no),
                              self.per_bucket if pass_no else self.first_per_bucket)

    def op(self, item: CompileItem):
        residual = peval.specialize(analyzer.build_abstract_interpreter(),
                                    srclang.embed_src_expr(item.program))
        text = printer.print_met(residual)
        return residual, text, parser.parse_met(text)

    def verify(self, item, out):
        residual, text, reparsed = out
        if reparsed != residual:
            return "print_met/parse_met round trip changed the residual"
        if peval.residual_stats(residual).has_match:
            return "residual contains Match"
        if self.recording:
            self.nodes.append(residual_nodes(residual))
        for domain, value in item.inputs:
            spec_budget, meta_budget = EvalBudget(), EvalBudget()
            result = domains.met_value_to_abs(interp.apply_met_function(
                residual, srclang.embed_src_value(value), domain, spec_budget))
            meta = analyzer.analyze_meta(domain, item.program, value, meta_budget)
            self.record_steps(item.target, domain, spec_budget.steps_used,
                              meta_budget.steps_used)
            expected = srclang.eval_src(item.program, value)
            if result != meta:
                return f"on {value}: residual {result} differs from meta-level {meta}"
            if not domains.contains(result, expected):
                return f"on {value}: residual {result} excludes {expected}"
        return None

    def residual_nodes(self):
        return mean(self.nodes)


# ---------------------------------------------------------------------------
# cli: in-process requests to the command-line front end
# ---------------------------------------------------------------------------


@dataclass
class CliRequest:
    index: int
    argv: list[str]
    analysis: AnalysisItem
    specialized: bool


class Cli(Workload):
    name = "cli"
    programs = 126    # a whole number of MIX cycles

    def setup(self) -> None:
        os.environ.pop("RETARGETER_FUEL", None)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.residual_files = {}
        for target, domain in PAIRS:
            path = self.scratch / f"{target}-{domain.name}.met"
            code, _, err = self.call(["retarget", "--target", target,
                                      "--domain", domain.name, "--emit", str(path)])
            if code != 0:
                raise RuntimeError(f"retarget --emit failed with exit {code}: {err}")
            self.residual_files[target, domain.name] = path
        # The residuals as the command loads them, to count their steps.
        self.residuals = {pair: parser.parse_met(path.read_text())
                          for pair, path in self.residual_files.items()}
        self.pool = self.make_pool(0)

    def make_pool(self, pass_no):
        """Three requests per program; the programs are written to the
        same files on every pass."""
        pool = []
        rng = self.rng(pass_no)
        for n in range(self.programs):
            target, domain = MIX[n % len(MIX)]
            program = tgtlang.random_tgt_program(rng, target, MAGNITUDE)
            concrete, abstract = (AnalysisItem(n, target, domain, program,
                                               *draw_input(rng, domain, c))
                                  for c in (True, False))
            path = self.scratch / f"p{n}.tgt"
            path.write_text(tgtlang.print_tgt_program(program) + "\n")
            residual = str(self.residual_files[target, domain.name])
            abs_flag = f"--abs-input={domains.format_abs(abstract.value)}"
            domain_args = ["--domain", domain.name]
            for argv, analysis, specialized in (
                (["analyze-specialized", residual, str(path), *domain_args,
                  "--input", str(concrete.value)], concrete, True),
                (["analyze-specialized", residual, str(path), *domain_args, abs_flag],
                 abstract, True),
                (["analyze", str(path), *domain_args, abs_flag], abstract, False),
            ):
                pool.append(CliRequest(len(pool), argv, analysis, specialized))
        return pool

    @staticmethod
    def call(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exit_:     # argparse rejects its arguments
                code = exit_.code
        return code, out.getvalue(), err.getvalue()

    def op(self, request: CliRequest):
        return self.call(request.argv)

    def residual_steps(self, item: AnalysisItem) -> int:
        """Steps of the residual the command loads, on the request's input,
        with the argument built as the command builds it."""
        encoded = tgtlang.encode_tgt_program(item.program)
        if item.concrete:
            arg = srclang.embed_src_value(srclang.SPair(encoded, tgtlang.encode_tgt_value(item.value)))
        else:
            arg = VTuple(srclang.embed_src_value(encoded), VAbs(item.value))
        budget = EvalBudget()
        interp.apply_met_function(self.residuals[item.target, item.domain.name], arg,
                                  item.domain, budget)
        return budget.steps_used

    def verify(self, request, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        item = request.analysis
        try:
            printed = domains.parse_abs(stdout, item.domain)
        except ParseError as err:
            return f"unparseable output {stdout!r}: {err}"
        meta, meta_steps = meta_reference(item)
        if self.recording:
            residual = self.residual_steps(item) if request.specialized else None
            self.record_steps(item.target, item.domain, residual, meta_steps)
        return judge_analysis(item, printed, meta)

    def residual_nodes(self):
        return mean([residual_nodes(r) for r in self.residuals.values()])


WORKLOADS = {w.name: w for w in (Residual, Harness, Compile, Cli)}
