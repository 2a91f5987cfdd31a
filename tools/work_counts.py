"""Deterministic work counts: Python calls and bytecodes per analysis.

    python3 tools/work_counts.py [--programs N] [--json]

For each target and domain, the script draws ``N`` programs and inputs
from ``random.Random(SEED)`` as the harness trial loop does
(``random_tgt_program``, then an input in [-1000, 1000]), runs each once
untraced so that every cache is warm, and then runs each again under ``sys.settrace`` with
``f_trace_opcodes``.  It prints, per analysis, the Python calls (frames
entered) and the bytecodes executed by meta-level analysis
(``analyze_meta_target``) and by the residual (``run_specialized``).
The counts of one checkout are the same on every run and under every
``PYTHONHASHSEED``, unlike wall-clock time.

Blind spots:

* Counts compare only within one CPython minor version: another version
  compiles the same source to other bytecode.
* Work inside C functions (dict copies and merges, frozenset lookups,
  ``object.__new__``, slot setters) is not counted, so a change that
  moves work from Python into C lowers the counts by more than it lowers
  the time.
* Tracing turns the specializing interpreter off, so these are counts of
  unspecialized bytecode.

The package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--programs", type=int, default=50, help="programs per target and domain")
    p.add_argument("--json", action="store_true", help="print one JSON object")
    args = p.parse_args(argv)
    if args.programs < 1:
        p.error("--programs must be at least 1")
    return args


class Counter:
    """A ``sys.settrace`` hook counting frames entered and bytecodes run."""

    def __init__(self):
        self.calls = self.bytecodes = 0

    def trace(self, frame, event, arg):
        if event == "call":
            self.calls += 1
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
        elif event == "opcode":
            self.bytecodes += 1
        return self.trace

    def count(self, ops) -> tuple[float, float]:
        """Calls and bytecodes per op, each op run once, traced."""
        self.calls = self.bytecodes = 0
        sys.settrace(self.trace)
        try:
            for op in ops:
                op()
        finally:
            sys.settrace(None)
        return self.calls / len(ops), self.bytecodes / len(ops)


def counts(programs: int) -> dict:
    sys.path.insert(0, str(SRC))
    from retargeter import retarget
    from retargeter.analyzer import analyze_meta_target
    from retargeter.domains import DOMAINS
    from retargeter.retargeting import run_specialized
    from retargeter.tgtlang import TARGETS, random_tgt_program

    result = {}
    counter = Counter()
    for target in TARGETS:
        for name in sorted(DOMAINS):
            domain = DOMAINS[name]
            analyzer = retarget(target, domain)
            rng = random.Random(SEED)
            cases = [(random_tgt_program(rng, target), rng.randint(-1000, 1000))
                     for _ in range(programs)]
            paths = {
                "meta": [lambda p=p, v=v: analyze_meta_target(domain, p, v) for p, v in cases],
                "residual": [lambda p=p, v=v: run_specialized(analyzer, p, v) for p, v in cases],
            }
            for path, ops in paths.items():
                for op in ops:
                    op()
                calls, bytecodes = counter.count(ops)
                result[f"{target}/{name}/{path}"] = {"calls": calls, "bytecodes": bytecodes}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    table = counts(args.programs)
    version = f"{platform.python_implementation()} {platform.python_version()}"
    if args.json:
        print(json.dumps({"python": version, "programs": args.programs, "seed": SEED,
                          "per_analysis": table}, sort_keys=True))
        return 0
    print(f"Work per analysis, {args.programs} programs per row, seed {SEED}, {version}")
    print("(counts compare only within one CPython minor version; work inside C "
          "functions is not counted)")
    print(f"{'target/domain/path':<28}{'calls':>12}{'bytecodes':>14}")
    for key, row in table.items():
        print(f"{key:<28}{row['calls']:>12.2f}{row['bytecodes']:>14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
