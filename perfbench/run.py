"""Wall-clock benchmark of the retargeting pipeline.

    python3 perfbench/run.py --workload residual --seed 0 --seconds 20 --trace 0

Runs one workload (``residual``, ``harness``, ``compile``, ``cli``, or
``all`` for each in turn) against the package under ``src/`` of the
checkout this file sits in.  It prints a table of metrics with units,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit code is
1 when any output check failed and 2 when the package cannot be found.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("residual", "harness", "compile", "cli")
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time import and set-up once and print the seconds (internal)")
    return p.parse_args(argv)


def import_package():
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "retargeter" / "__init__.py").is_file():
        print(f"error: no package at {SRC}/retargeter; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import retargeter

    if Path(retargeter.__file__).resolve().parent != SRC / "retargeter":
        print(f"error: imported retargeter from {retargeter.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def scratch_dir() -> Path:
    return ROOT / ".bench_build" / f"perfbench-{os.getpid()}"


def command(args, workload: str, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def median_setup(args, own: tuple[float, float]) -> tuple[float, float]:
    """Median corrected and raw import-plus-set-up time of this process
    and of fresh probe processes, so caches the package fills on first
    use are paid on every sample."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(command(args, args.workload, "--setup-probe"), cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        corrected, raw = proc.stdout.split()[-2:]
        samples.append((float(corrected), float(raw)))
    return (statistics.median(c for c, _ in samples),
            statistics.median(r for _, r in samples))


def print_table(title: str, metrics: dict, extra: list[str]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for line in extra:
        print(f"  {line}")


def run_one(args) -> int:
    start = time.perf_counter()
    import_package()
    import workloads

    scratch = scratch_dir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.setup()
        raw_setup_s = time.perf_counter() - start
        import engine

        setup = (raw_setup_s / engine.slowdown_now(), raw_setup_s)
        if args.setup_probe:
            print(*setup)
            return 0
        m = engine.measure(workload, args.seconds, bool(args.trace))
        summary = workload.summary()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    fail_share = m.failed / m.attempted
    extra = [f"{'fail_share':<28} {fail_share:>14.6g} fraction "
             f"({m.failed} of {m.attempted} {'trials' if workload.units > 1 else 'ops'})"]
    if args.trace:
        metrics = engine.per_layer(m)
        title = f"{args.workload}: per-layer, {m.traced_units} traced units"
    else:
        setup_s, raw_setup_s = median_setup(args, setup)
        metrics = engine.end_to_end(m, summary, setup_s)
        title = f"{args.workload}: end to end, seed {args.seed}"
        samples = sum(len(p.op_s) for p in m.passes)
        extra.append(f"{'latency samples':<28} {samples:>14d} "
                     f"({len(m.passes)} timed passes)")
        if samples < 1000:
            extra.append("note: under 1000 samples, so fewer than 10 lie beyond p99")
        extra.append(f"{'raw.setup_s':<28} {raw_setup_s:>14.6g} s")
        for name, (value, unit) in engine.ungated(m).items():
            extra.append(f"{name:<28} {value:>14.6g} {unit}")
        for (target, domain), (res, met) in workload.pin_table().items():
            extra.append(f"steps per analysis {target}/{domain}: residual {res:g}, meta {met:g}")
    print_table(title, metrics, extra)
    for problem in workload.problems[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = m.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(command(args, name), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S + args.seconds * 3)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        import_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
