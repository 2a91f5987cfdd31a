"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

Checks that the step counts reproduce the baseline (29/198 residual/meta
steps per analysis on ``single``, 82/628 on ``seq2``, on both domains),
that every deterministic metric repeats
exactly, that each workload's output check rejects a known-wrong output
without aborting the run, and that a traced run restores every function
it wrapped.  Prints one line per failed check and exits 1 if any failed.
"""

from __future__ import annotations

import shutil
import sys

import run

run.import_package()

import engine      # noqa: E402  (needs the package on the path)
import tracing     # noqa: E402
import workloads   # noqa: E402
from retargeter import domains, errors, tgtlang   # noqa: E402
from retargeter.met import parser, printer   # noqa: E402

# Residual and meta-level evaluation steps per analysis, on both domains.
BASELINE_STEPS = {"single": (29, 198), "seq2": (82, 628)}
BASELINE_RATIO = {"single": 6.8, "seq2": 7.7}

# Layers each workload's ops must reach in a traced run.
REACHED = {
    "residual": {"met.interp", "domains", "retargeting", "srclang", "tgtlang"},
    "harness": {"met.interp", "domains", "peval", "analyzer", "retargeting", "srclang",
                "tgtlang"},
    "compile": {"peval", "met.parser", "met.printer", "srclang"},
    "cli": {"cli", "met.interp", "domains", "met.parser", "analyzer", "srclang", "tgtlang"},
}
DETERMINISTIC_LAYER_METRICS = ("met.interp.steps", "domains.calls", "peval.calls",
                               "analyzer.steps_per_call", "retargeting.steps_per_call")

SCRATCH = run.ROOT / ".bench_build" / "perfbench-selftest"
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def tiny(name: str, seed: int) -> workloads.Workload:
    workload = workloads.WORKLOADS[name](seed, SCRATCH / f"{name}-{seed}")
    workload.pool_size = 16       # residual
    if name == "harness":
        workload.units = 3        # trials per call
    workload.first_per_bucket = workload.per_bucket = 1    # compile
    workload.programs = 4         # cli
    workload.setup()
    return workload


def measure(workload, trace: bool = False) -> engine.Measurement:
    """The untimed first pass, then one timed pass (two, alternating,
    when traced)."""
    return engine.measure(workload, 0.0, trace)


def check_pins(name: str, workload) -> None:
    for (target, domain), (residual, meta) in workload.pin_table().items():
        expect((residual, meta) == BASELINE_STEPS[target],
               f"{name}: {target}/{domain} takes {residual}/{meta} residual/meta steps, "
               f"baseline {BASELINE_STEPS[target]}")
        expect(round(meta / residual, 1) == BASELINE_RATIO[target],
               f"{name}: {target}/{domain} step ratio {meta / residual:.2f}")
    expect(len(workload.pin_table()) == len(workloads.PAIRS),
           f"{name}: step counts cover {sorted(workload.pin_table())}")


def deterministic(name: str, seed: int) -> dict:
    workload = tiny(name, seed)
    m = measure(workload, trace=True)
    expect(m.failed == 0, f"{name} seed {seed}: {m.failed} of {m.attempted} units failed: "
                          f"{workload.problems[:3]}")
    check_pins(name, workload)
    layers = engine.per_layer(m)
    counts = dict(workload.summary())
    counts.update({k: layers[k][0] for k in DETERMINISTIC_LAYER_METRICS})
    counts["pins"] = workload.pin_table()
    check_trace(name, m, layers)
    return counts


def check_trace(name: str, m: engine.Measurement, layers: dict) -> None:
    expect(not tracing.installed_wrappers(),
           f"{name}: wrappers left installed: {tracing.installed_wrappers()}")
    for module, attr, original in m.tracer.originals():
        expect(getattr(module, attr) is original,
               f"{name}: {module.__name__}.{attr} not restored after the traced run")
    attributed = sum(s.self_s for s in m.tracer.stats.values())
    expect(attributed <= m.traced_busy,
           f"{name}: layer self times {attributed:.6f}s exceed traced wall {m.traced_busy:.6f}s")
    expect(layers["unattributed.self_ms"][0] >= 0, f"{name}: negative unattributed time")
    for layer in REACHED[name]:
        expect(m.tracer.stats[layer].calls > 0, f"{name}: traced run never reached {layer}")


def check_untraced_installs_nothing() -> None:
    workload = tiny("residual", 0)
    seen = []
    real_op = workload.op
    workload.op = lambda item: (seen.append(tracing.installed_wrappers()), real_op(item))[1]
    measure(workload)
    expect(seen and not any(seen), "untraced run installed wrappers")


def wrong_output(name: str, workload):
    """An item of the first pass and a known-wrong output for it, which
    stays wrong for the item of the same index on a later pass."""
    item = workload.pool[0]
    if name == "residual":
        item = next(i for i in workload.pool if i.domain is domains.INTERVAL)
        value = tgtlang.eval_tgt(item.program, item.member)
        excluded = domains.Num(domains.Interval(value + 1, value + 1))
        return item, (excluded, workload.op(item)[1])
    if name == "harness":
        report = workload.op(item)
        report.failures.append({"trial": 0, "planted": True})
        return item, report
    if name == "compile":
        residual = parser.parse_met("fun i -> match i with | (a, b) -> a")
        return item, (residual, printer.print_met(residual), residual)
    return item, (2, "", "error: planted failure")


def check_checkers(name: str) -> None:
    """A wrong output counts as failed units and the run goes on."""
    workload = tiny(name, 0)
    item, bad = wrong_output(name, workload)
    real_op = workload.op
    workload.op = lambda i: bad if i.index == item.index else real_op(i)
    m = measure(workload)
    passes = 2      # the untimed first pass and one timed pass
    expect(m.attempted == passes * workload.units * len(workload.pool),
           f"{name}: the run stopped after a wrong output")
    expect(m.failed == passes * workload.failed_units(bad),
           f"{name}: wrong output gave {m.failed} failed units")
    expect(bool(workload.problems), f"{name}: wrong output not reported")

    workload = tiny(name, 0)

    def raising(i):
        raise errors.StuckError("planted failure")

    workload.op = raising
    m = measure(workload)
    expect(m.failed == m.attempted == 2 * workload.units * len(workload.pool),
           f"{name}: raised RetargeterError gave {m.failed} of {m.attempted} failed units")


def main() -> int:
    try:
        for name in workloads.WORKLOADS:
            first, again = deterministic(name, 0), deterministic(name, 0)
            expect(first == again, f"{name}: deterministic metrics differ between runs: "
                                   f"{first} != {again}")
            check_checkers(name)
        other = tiny("residual", 1)
        expect([i.program for i in other.pool] != [i.program for i in tiny("residual", 0).pool],
               "residual: a second seed generated the same programs")
        expect(deterministic("residual", 1)["pins"] == deterministic("residual", 0)["pins"],
               "residual: step counts depend on the seed")
        check_untraced_installs_nothing()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
