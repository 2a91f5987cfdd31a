"""Deterministic work counts: Python calls and bytecodes per analysis
and per specialization.

    python3 tools/work_counts.py [--programs N] [--json]

For each target and domain, the script draws ``N`` programs and inputs
from ``random.Random(SEED)`` as the harness trial loop does
(``random_tgt_program``, then an input in [-1000, 1000]), runs each once
untraced so that every cache is warm, and then runs each again under ``sys.settrace`` with
``f_trace_opcodes``.  It prints, per analysis, the Python calls (frames
entered) and the bytecodes executed by meta-level analysis
(``analyze_meta_target``) and by the residual (``run_specialized``).
The ``residual_abstract`` rows run the residual on the same programs
with abstract inputs (``run_specialized_abstract``), drawn next from the
same generator as the ``residual`` benchmark draws them: an interval in
[-1000, 1000], one in five of them unbounded on one side, or a nonempty
sign set.  The ``harness`` rows count the trial loop of the ``harness``
benchmark, per trial of ``check_soundness`` plus one of
``check_equivalence``: each runs ``N`` trials from seed ``SEED`` in one
call, as ``_harness`` runs them (a program and an input drawn, meta-level
analysis, the residual and the verdict), and the counts are divided by
``N``.

The ``compile`` rows count the specialization round trip the same way,
per source program: ``N`` programs drawn from ``random.Random(SEED)`` with
``random_src_expr`` at depths 3 to 7, as the ``compile`` benchmark draws
them.  ``embed`` embeds each as meta-language data (``embed_src_expr``),
``specialize`` specializes the abstract interpreter to that, ``print_met``
prints the residual and ``parse_met`` parses that text: the four phases of
one ``compile`` op.
``parse_met``'s memo is emptied before each parse, since a round trip
parses a new text every time.

The ``cli`` rows count one in-process ``cli.main`` request, argv parsing
included and stdout captured: ``analyze-specialized`` on a residual
emitted by ``retarget --emit``, and ``analyze``, each with ``--input``,
on the programs and inputs of the analysis rows, written to files in a
temporary directory.  Every request runs once before it is counted, so
the residual's text is a hit in ``parse_met``'s memo, as it is on every
request but the first in a process.

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
import contextlib
import io
import json
import platform
import random
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--programs", type=int, default=50,
                   help="programs per target and domain, and source programs specialized")
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
    from retargeter import cli, retarget
    from retargeter.analyzer import analyze_meta_target, build_abstract_interpreter
    from retargeter.domains import DOMAINS, INTERVAL, Interval, Sign, SignSet
    from retargeter.met import parser
    from retargeter.met.printer import print_met
    from retargeter.peval import specialize
    from retargeter.retargeting import (
        check_equivalence,
        check_soundness,
        run_specialized,
        run_specialized_abstract,
    )
    from retargeter.srclang import embed_src_expr, random_src_expr
    from retargeter.tgtlang import TARGETS, print_tgt_program, random_tgt_program

    def abstract_input(rng, domain):
        if domain is INTERVAL:
            lo, shape = rng.randint(-1000, 1000), rng.random()
            if shape < 0.1:
                return Interval(None, lo)
            if shape < 0.2:
                return Interval(lo, None)
            return Interval(lo, lo + rng.randint(0, 200))
        signs = [s for s in Sign if rng.random() < 0.5] or [rng.choice(list(Sign))]
        return SignSet(frozenset(signs))

    result = {}
    counter = Counter()

    def measure(key, ops, per=1):
        """Count ``ops``, each standing for ``per`` units of work."""
        for op in ops:
            op()
        calls, bytecodes = counter.count(ops)
        result[key] = {"calls": calls / per, "bytecodes": bytecodes / per}

    requests = {"analyze-specialized": [], "analyze": []}
    files = tempfile.TemporaryDirectory()
    out = io.StringIO()

    def command(argv):
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"retargeter {' '.join(argv)} exited {code}")

    for target in TARGETS:
        for name in sorted(DOMAINS):
            domain = DOMAINS[name]
            analyzer = retarget(target, domain)
            rng = random.Random(SEED)
            cases = [(random_tgt_program(rng, target), rng.randint(-1000, 1000))
                     for _ in range(programs)]
            inputs = [abstract_input(rng, domain) for _ in cases]
            residual = f"{files.name}/{target}-{name}.met"
            command(["retarget", "--target", target, "--domain", name, "--emit", residual])
            for n, (p, v) in enumerate(cases):
                path = f"{files.name}/{target}-{name}-{n}.tgt"
                with open(path, "w") as file:
                    file.write(print_tgt_program(p) + "\n")
                flags = [path, "--domain", name, "--input", str(v)]
                requests["analyze-specialized"].append(["analyze-specialized", residual, *flags])
                requests["analyze"].append(["analyze", *flags])
            paths = {
                "meta": [lambda p=p, v=v: analyze_meta_target(domain, p, v) for p, v in cases],
                "residual": [lambda p=p, v=v: run_specialized(analyzer, p, v) for p, v in cases],
                "residual_abstract": [lambda p=p, a=a: run_specialized_abstract(analyzer, p, a)
                                      for (p, _), a in zip(cases, inputs)],
            }
            for path, ops in paths.items():
                measure(f"{target}/{name}/{path}", ops)
            measure(f"{target}/{name}/harness",
                    [lambda: (check_soundness(domain, target, programs, SEED),
                              check_equivalence(domain, target, programs, SEED))],
                    per=programs)

    interpreter = build_abstract_interpreter()
    rng = random.Random(SEED)
    sources = [random_src_expr(rng, "int", rng.randint(3, 7)) for _ in range(programs)]
    embedded = [embed_src_expr(p) for p in sources]
    residuals = [specialize(interpreter, e) for e in embedded]
    texts = [print_met(r) for r in residuals]
    forget = parser._parse.cache_clear
    stages = {
        "embed": [lambda p=p: embed_src_expr(p) for p in sources],
        "specialize": [lambda e=e: specialize(interpreter, e) for e in embedded],
        "print_met": [lambda r=r: print_met(r) for r in residuals],
        "parse_met": [lambda t=t: (forget(), parser.parse_met(t)) for t in texts],
    }
    for stage, ops in stages.items():
        measure(f"compile/{stage}", ops)

    with files:
        for name, argvs in requests.items():
            for argv in argvs:
                command(argv)    # fails on a nonzero exit, which measure() would not see
            with contextlib.redirect_stdout(out):
                measure(f"cli/{name}", [lambda argv=argv: cli.main(argv) for argv in argvs])
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    table = counts(args.programs)
    version = f"{platform.python_implementation()} {platform.python_version()}"
    if args.json:
        print(json.dumps({"python": version, "programs": args.programs, "seed": SEED,
                          "per_analysis": table}, sort_keys=True))
        return 0
    print(f"Work per analysis or specialization, {args.programs} programs per row, "
          f"seed {SEED}, {version}")
    print("(counts compare only within one CPython minor version; work inside C "
          "functions is not counted)")
    print(f"{'target/domain/path':<33}{'calls':>12}{'bytecodes':>14}")
    for key, row in table.items():
        print(f"{key:<33}{row['calls']:>12.2f}{row['bytecodes']:>14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
