"""Write a BENCH_<label>.json record from alternating benchmark pairs.

    python3 tools/bench_record.py --parent ../parent --change . --label NAME \\
        --workload all --seed 0 --pairs 5 --seconds 20

Each pair runs ``perfbench/run.py`` once in the parent checkout and once
in the change checkout, in fresh processes, one after the other; the
side that runs first alternates from pair to pair.  Each checkout runs
its own ``perfbench/run.py`` on its own ``src/``.  For every metric the
record holds each side's median and quartiles, the number of pairs, and
how many pairs each side won in the metric's direction, which is read
from the change checkout's ``BENCHMARK.json``.

``--trace`` runs the traced, per-layer benchmark instead, and files its
cells under ``traced``.  A traced cell whose two sides'
``calibration.slowdown`` quartiles do not overlap is marked
``calibration_differs`` and reports no gain in any metric.  ``--append``
adds cells to an existing record of the same two commits, so one record
can hold several seeds and a traced run.

Both sides import their checkout cold, as a fresh checkout does, and
the standard library warm.  Every run has ``PYTHONDONTWRITEBYTECODE=1``
and a ``PYTHONPYCACHEPREFIX`` of its side's own, so a checkout's
``__pycache__`` is never read and nothing is cached between runs.  Each
side's prefix, ``.bench_build/bench_record/<label>/pycache-<side>/``, is
emptied, then filled by one set-up probe per workload with bytecode
writing on, and what the probe cached of the checkout is removed; what
stays is the standard library's bytecode, which an empty prefix would
make every run compile again.

The record's ``work_counts`` holds each side's deterministic work
counts: its own ``tools/work_counts.py --json``, run once on its own
``src/``, or ``null`` for a checkout that has no such script.

Every run's stderr is kept in ``.bench_build/bench_record/<label>/``.
A run that exits nonzero or prints no JSON line is counted, and named
in the record's ``failed_runs`` with its exit code and the end of its
stderr; the script then exits 1, after writing the record.  So is a
work-counts script that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("residual", "harness", "compile", "cli")
SIDES = ("parent", "change")
STDERR_TAIL = 40        # lines of stderr quoted for a failed run
GAIN_MIN_PAIRS = 5      # fewer pairs cannot show a gain, however they fall


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    p.add_argument("--workload", action="append", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, action="append")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", action="store_true", help="per-layer runs (--trace 1)")
    p.add_argument("--append", action="store_true", help="add cells to an existing record")
    p.add_argument("--output", type=Path, help="default: BENCH_<label>.json")
    p.add_argument("--note", help="free text stored in the record")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    args.workloads = WORKLOADS if "all" in args.workload else tuple(dict.fromkeys(args.workload))
    args.seeds = tuple(dict.fromkeys(args.seed or [0]))
    args.output = args.output or Path(f"BENCH_{args.label}.json")
    args.log_dir = Path(".bench_build") / "bench_record" / args.label
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            p.error(f"{side} has no perfbench/run.py")
    return args


def git(checkout: Path, *argv: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(checkout), *argv],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(checkout: Path) -> dict:
    """The commit a checkout is at, and whether its tracked files differ
    from it; both are None outside a git checkout."""
    commit = git(checkout, "rev-parse", "HEAD")
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "modified": None if status is None else bool(status)}


def directions(checkout: Path) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_env(pycache: Path, write_bytecode: bool = False, base: dict | None = None) -> dict:
    """The environment of a run: ``base`` (default ``os.environ``) with
    bytecode caches read from ``pycache`` alone, never from a checkout's
    ``__pycache__``, and written there only if ``write_bytecode``."""
    env = dict(os.environ if base is None else base)
    env["PYTHONPYCACHEPREFIX"] = str(pycache.resolve())
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def mirror(pycache: Path, checkout: Path) -> Path:
    """Where Python caches the bytecode of ``checkout``'s files under ``pycache``."""
    path = checkout.resolve()
    return pycache.resolve() / path.relative_to(path.anchor)


def prepare_pycache(checkout: Path, pycache: Path, workloads: tuple[str, ...]) -> None:
    """Empty ``pycache``, then leave in it the standard library's bytecode
    that a set-up of each workload imports, and none of the checkout's."""
    shutil.rmtree(pycache, ignore_errors=True)
    pycache.mkdir(parents=True)
    for workload in workloads:
        subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--setup-probe"], cwd=checkout, env=run_env(pycache, write_bytecode=True),
                       capture_output=True, timeout=900)
    shutil.rmtree(mirror(pycache, checkout), ignore_errors=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool,
             log: Path, pycache: Path) -> dict:
    """One benchmark run: its metrics, or why it gave none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    return run_command(argv, checkout, seconds * 4 + 900, log, pycache)


def run_command(argv: list[str], checkout: Path, timeout: float, log: Path,
                pycache: Path) -> dict:
    """Run ``argv`` in ``checkout``, keep its stderr in ``log``, and read
    the JSON object on the last line of its stdout."""
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              env=run_env(pycache), timeout=timeout)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = None, exc.stdout or "", (exc.stderr or "") + "\n(timed out)"
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
        stderr = stderr.decode() if isinstance(stderr, bytes) else stderr
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(stderr)
    result = None
    lines = stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"exit": code, "result": result, "stderr": stderr, "log": str(log)}


WORK_COUNTS = "tools/work_counts.py"


def work_counts(checkout: Path, log: Path, pycache: Path) -> dict | None:
    """One run of ``checkout``'s own work-counts script, as ``run_command``
    gives it, or None when the checkout has no such script."""
    if not (checkout / WORK_COUNTS).is_file():
        return None
    return run_command([sys.executable, WORK_COUNTS, "--json"], checkout, 900, log, pycache)


def work_counts_record(runs: dict[str, dict | None]) -> dict:
    """The record's ``work_counts``: each side's rows per analysis, or None
    where it has no script or its run gave no JSON, with the CPython
    version, programs and seed that the scripts report."""
    results = {side: runs[side] and runs[side]["result"] for side in SIDES}
    reported = results["change"] or results["parent"] or {}
    return {
        "command": f"python3 {WORK_COUNTS} --json, each side's own script on its own src",
        "python": reported.get("python"),
        "programs": reported.get("programs"),
        "seed": reported.get("seed"),
        **{side: result["per_analysis"] if result else None for side, result in results.items()},
    }


def round4(x: float) -> float:
    return float(f"{x:.4g}")


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round4(statistics.median(values)), "q1": round4(q1), "q3": round4(q3)}


def cell_record(workload: str, seed: int, pairs: list[dict[str, dict]],
                better: dict[str, str]) -> dict:
    def metrics(run):
        result = run["result"]
        if result is None:
            return {}
        return {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}

    measured = [{side: metrics(pair[side]) for side in SIDES} for pair in pairs]
    names = dict.fromkeys(name for m in measured for side in SIDES for name in m[side])
    out = {}
    for name in names:
        sides = {side: [m[side][name][0] for m in measured if name in m[side]] for side in SIDES}
        if not sides["parent"] or not sides["change"]:
            continue
        unit = next(m[side][name][1] for m in measured for side in SIDES if name in m[side])
        entry = {"unit": unit, "parent": summary(sides["parent"]),
                 "change": summary(sides["change"]), "better": better.get(name)}
        if entry["better"] in ("higher", "lower"):
            sign = 1 if entry["better"] == "higher" else -1
            wins = {"change": 0, "parent": 0}
            for m in measured:
                a, b = m["parent"].get(name), m["change"].get(name)
                if a is None or b is None or a[0] == b[0]:
                    continue
                wins["change" if sign * (b[0] - a[0]) > 0 else "parent"] += 1
            entry["change_wins"], entry["parent_wins"] = wins["change"], wins["parent"]
            # A gain: the change wins at least nine tenths of the pairs,
            # and the medians differ in its favour by more than the
            # parent's interquartile range, its run-to-run spread.
            p, c = entry["parent"], entry["change"]
            entry["gain"] = (len(pairs) >= GAIN_MIN_PAIRS
                             and wins["change"] * 10 >= len(pairs) * 9
                             and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"])
        out[name] = entry
    cell = {
        "workload": workload,
        "seed": seed,
        "pairs": len(pairs),
        "runs_failed": {side: sum(1 for p in pairs if p[side]["exit"] != 0
                                  or p[side]["result"] is None)
                        for side in SIDES},
        "ops_failed": {side: sum(p[side]["result"]["failed"] for p in pairs
                                 if p[side]["result"] is not None)
                       for side in SIDES},
    }
    calibration = out.get("calibration.slowdown")
    if calibration is not None:
        # A traced cell's per-layer times are divided by the slowdown the
        # calibration loop measured.  When the two sides' slowdowns do not
        # even overlap in their quartiles, the machine was in another
        # state for each, and a difference in those times shows no gain.
        p, c = calibration["parent"], calibration["change"]
        cell["calibration_differs"] = p["q3"] < c["q1"] or c["q3"] < p["q1"]
        if cell["calibration_differs"]:
            for entry in out.values():
                entry.pop("gain", None)
    cell["metrics"] = out
    return cell


def failure(name: str, run: dict) -> dict:
    """The ``failed_runs`` entry of a run that exited nonzero or printed no
    JSON line."""
    return {
        "run": name,
        "exit": run["exit"],
        "json_line": run["result"] is not None,
        "stderr_log": run["log"],
        "stderr_tail": run["stderr"].splitlines()[-STDERR_TAIL:],
    }


def render(value, depth: int = 0) -> str:
    """JSON with one line per metric, as in the hand-written records."""
    if isinstance(value, dict) and value and depth < 4:
        pad = " " * (depth + 1)
        items = [f"{pad}{json.dumps(k)}: {render(v, depth + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    return json.dumps(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    commits = {side: describe(path) for side, path in checkouts.items()}
    better = directions(args.change)
    section = "traced" if args.trace else "end_to_end"

    if args.append and args.output.exists():
        record = json.loads(args.output.read_text())
        for side in SIDES:
            if record[side]["commit"] != commits[side]["commit"]:
                print(f"error: {args.output} records {side} commit {record[side]['commit']}, "
                      f"not {commits[side]['commit']}", file=sys.stderr)
                return 2
    else:
        record = {
            "label": args.label,
            "parent": commits["parent"],
            "change": commits["change"],
            "machine": f"{platform.machine()}, {platform.system()}, "
                       f"{platform.python_implementation()} {platform.python_version()}",
            "method": {
                "command": "python3 perfbench/run.py --workload W --seed S --seconds T "
                           "--trace 0 (end_to_end) or --trace 1 (traced), in each checkout",
                "pairs": "each pair runs the parent and the change once, one after the other, "
                         "in fresh processes; the side that runs first alternates from pair "
                         "to pair",
                "quartiles": "statistics.quantiles(values, n=4, method='inclusive') over the "
                             "runs of one side",
                "wins": "pairs in which the change's value is better in the metric's "
                        "direction; ties count for neither side",
                "gain": f"at least {GAIN_MIN_PAIRS} pairs, the change wins at least 9 in 10 "
                        "of them, and its median is better than the parent's by more than "
                        "the parent's interquartile range",
                "calibration_differs": "in a traced cell: the two sides' interquartile "
                                       "ranges of calibration.slowdown do not overlap, and "
                                       "the cell's metrics then report no gain",
                "runs_failed": "runs that exited nonzero or printed no JSON line",
                "work_counts": "each side's own tools/work_counts.py --json, run once on its "
                               "own src with the same bytecode settings; null for a side "
                               "without that script",
                "bytecode": "every run has PYTHONDONTWRITEBYTECODE=1 and its side's own "
                            "PYTHONPYCACHEPREFIX, which holds the standard library's bytecode "
                            "and none of the checkout's, so both sides import their checkout "
                            "cold, as a fresh checkout does, and no __pycache__ in a checkout "
                            "is read",
            },
            "end_to_end": {},
            "traced": {},
            "failed_runs": [],
        }
    if args.note:
        record["note"] = args.note

    pycaches = {side: args.log_dir / f"pycache-{side}" for side in SIDES}
    for side in SIDES:
        prepare_pycache(checkouts[side], pycaches[side], args.workloads)

    any_failed = False
    if "work_counts" not in record:
        runs = {}
        for side in SIDES:
            log = args.log_dir / f"work_counts-{side}.stderr"
            run = runs[side] = work_counts(checkouts[side], log, pycaches[side])
            status = ("no script" if run is None
                      else "ok" if run["exit"] == 0 and run["result"] else "FAILED")
            print(f"{side} work counts: {status}", file=sys.stderr, flush=True)
            if status == "FAILED":
                any_failed = True
                record["failed_runs"].append(failure(f"{side} work counts", run))
        record["work_counts"] = work_counts_record(runs)
    for workload in args.workloads:
        for seed in args.seeds:
            cell = f"{workload}/seed{seed}"
            pairs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    name = f"{side} {section} {cell} pair {k + 1}"
                    log = args.log_dir / f"{section}-{workload}-seed{seed}-pair{k + 1}-{side}.stderr"
                    run = run_once(checkouts[side], workload, seed, args.seconds, args.trace, log,
                                   pycaches[side])
                    pair[side] = run
                    status = "ok" if run["exit"] == 0 and run["result"] else "FAILED"
                    print(f"{name}: exit {run['exit']}, {status}", file=sys.stderr, flush=True)
                    if run["exit"] != 0 or run["result"] is None:
                        any_failed = True
                        record["failed_runs"].append(failure(name, run))
                pairs.append(pair)
            record[section][cell] = cell_record(workload, seed, pairs, better)
            # Written after every cell, so an interrupted run keeps what it ran.
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(render(record) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
