"""Command-line front end.

Subcommands::

    run                  run a target program concretely
    analyze              analyze a target program meta-level
    retarget             emit a specialized analyzer for a target
    analyze-specialized  analyze using an emitted residual
    check                randomized soundness + equivalence harnesses
    bench                step-count comparison, specialized vs meta

Exit codes: 0 success, 1 property failure, 2 malformed input (a parse
error, a bad flag value, a file that cannot be read or written, a
residual whose header names another target than the program's, a
residual that gets stuck instead of analyzing, or a result with an
integer of more digits than ``str`` converts, 4300 by default: see
``sys.get_int_max_str_digits``), 3 step budget exhausted.

``retarget`` writes the header ``# target: <name>`` above the residual;
``analyze-specialized`` checks it, and trusts a residual without one.
``analyze`` and ``analyze-specialized`` take ``--fuel``, the evaluation
step budget (a positive integer, default 1,000,000); no other subcommand
has one.

The argument parser is built on the first ``main`` call and reused by
every later call in the process; parsing leaves no state in it.  A
request whose first word is a subcommand's name is parsed once, by that
subcommand's own parser.  The top-level parser handles every other argv
(none, ``-h``, an unknown word) and reports the words a subcommand does
not recognize, so help, usage and error messages are those of a single
``argparse`` parser with subcommands.  ``json`` is imported only for
``--output json``.  A residual text is parsed and compiled once while
it stays in ``parse_met``'s memo; the file is still read on every
request, so an edited residual is parsed afresh.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .analyzer import analyze_meta_target
from .domains import DOMAINS, AbsValue, get_domain, parse_abs
from .errors import FuelExhausted, ParseError, RetargeterError, StuckError
from .met.parser import parse_met
from .met.printer import print_met
from .met.syntax import DEFAULT_FUEL, EvalBudget
from .retargeting import (
    RetargetedAnalyzer,
    bench_steps,
    check_equivalence,
    check_soundness,
    retarget,
    run_specialized_abstract,
)
from .srclang import parse_int
from .tgtlang import (
    TARGETS,
    eval_tgt,
    parse_tgt_program,
    target_of,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_FUEL = 3

# The first line of an emitted residual, a comment the .met parser skips.
HEADER = "# target: "


def _read(path: str) -> str:
    with open(path) as file:
        return file.read()


def _load_program(path: str):
    return parse_tgt_program(_read(path))


def _print_result(value) -> int:
    """Print an analysis or run result, which may hold integers of any size."""
    try:
        text = str(value)
    except ValueError:    # an integer with more digits than str() converts
        print(f"error: the result has an integer of more than "
              f"{sys.get_int_max_str_digits()} digits, the limit set by "
              f"sys.set_int_max_str_digits()", file=sys.stderr)
        return EXIT_PARSE
    print(text)
    return EXIT_OK


def cmd_run(args) -> int:
    program = _load_program(args.program)
    return _print_result(eval_tgt(program, args.input))


def _resolve_input(args, domain) -> AbsValue:
    """The abstract analysis input for a target program.  A concrete
    ``--input n`` is its singleton abstraction: the interpreter abstracts
    its input before anything else, so both analyze to the same result
    in the same number of steps."""
    if args.input is not None:
        return domain.eta_int(args.input)
    return parse_abs(args.abs_input, domain)


def cmd_analyze(args) -> int:
    domain = get_domain(args.domain)
    program = _load_program(args.program)
    result = analyze_meta_target(domain, program, _resolve_input(args, domain),
                                 EvalBudget(fuel=args.fuel))
    return _print_result(result)


def cmd_retarget(args) -> int:
    analyzer = retarget(args.target, get_domain(args.domain))
    text = f"{HEADER}{args.target}\n{print_met(analyzer.residual)}"
    if args.emit:
        with open(args.emit, "w") as file:
            file.write(text + "\n")
    else:
        print(text)
    stats = analyzer.stats()
    ops = " ".join(f"{k}={v}" for k, v in sorted(stats.abstract_ops.items()))
    print(f"retargeted {args.target}: match_nodes={stats.counts.get('Match', 0)} {ops}")
    return EXIT_OK


def cmd_analyze_specialized(args) -> int:
    domain = get_domain(args.domain)
    text = _read(args.residual)
    residual = parse_met(text)
    program = _load_program(args.program)
    target = target_of(program)
    if text.startswith(HEADER):
        named = text.partition("\n")[0][len(HEADER):].strip()
        if named != target:
            print(f"error: {args.residual} is a residual for target {named!r}, "
                  f"but {args.program} is a {target!r} program", file=sys.stderr)
            return EXIT_PARSE
    analyzer = RetargetedAnalyzer(residual, domain, target)
    try:
        result = run_specialized_abstract(analyzer, program, _resolve_input(args, domain),
                                          EvalBudget(fuel=args.fuel))
    except StuckError as err:
        # The residual is user input: one that gets stuck is not an analyzer.
        print(f"error: {args.residual} is not an analyzer: {err}", file=sys.stderr)
        return EXIT_PARSE
    return _print_result(result)


def _emit_reports(args, reports) -> int:
    if args.output == "json":
        import json
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.to_text())
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAILURE


def cmd_check(args) -> int:
    domain = get_domain(args.domain)
    reports = [
        check_soundness(domain, args.target, args.trials, args.seed),
        check_equivalence(domain, args.target, args.trials, args.seed),
    ]
    return _emit_reports(args, reports)


def cmd_bench(args) -> int:
    domain = get_domain(args.domain)
    return _emit_reports(args, [bench_steps(domain, args.target, args.trials, args.seed)])


def integer(text: str) -> int:
    """An argparse type for integers in the syntax of every front end
    (``srclang.parse_int``); usage errors call it by this name."""
    try:
        return parse_int(text)
    except ParseError as err:    # a message that does not echo every digit
        raise argparse.ArgumentTypeError(str(err)) from None


def _int_at_least(least: int, kind: str):
    """An argparse type for integers no smaller than ``least``."""
    def parse(text: str) -> int:
        value = integer(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, not {value}")
        return value
    parse.__name__ = f"{kind} integer"
    return parse


positive_int = _int_at_least(1, "positive")
nonnegative_int = _int_at_least(0, "nonnegative")


def path(text: str) -> str:
    """An argparse type for file paths.  ``open`` rejects a NUL byte, which
    no file system takes, with ``ValueError``; here it is a usage error."""
    if "\0" in text:
        raise argparse.ArgumentTypeError("a path cannot hold a NUL byte")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Its ``commands``
    maps each subcommand's name to that subcommand's own parser."""
    parser = argparse.ArgumentParser(
        prog="retargeter",
        description="Derive and run static analyzers for small target languages "
                    "by specializing an abstract interpreter.",
    )
    domain_arg = argparse.ArgumentParser(add_help=False)
    domain_arg.add_argument("--domain", choices=tuple(DOMAINS), required=True)

    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name, **kwargs) -> argparse.ArgumentParser:
        parser.commands[name] = p = sub.add_parser(name, **kwargs)
        return p

    p = command("run", help="run a target program")
    p.add_argument("program", type=path, help="target program file (e.g. add42.tgt)")
    p.add_argument("--input", type=integer, required=True)
    p.set_defaults(fn=cmd_run)

    def add_analysis_inputs(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", type=integer, help="concrete integer input")
        group.add_argument("--abs-input", dest="abs_input",
                           help="abstract input, e.g. '[0,10]' or '{0,+}'")
        p.add_argument("--fuel", type=positive_int, default=DEFAULT_FUEL,
                       help=f"evaluation step budget (default: {DEFAULT_FUEL})")

    p = command("analyze", parents=[domain_arg],
                help="analyze a target program meta-level")
    p.add_argument("program", type=path)
    add_analysis_inputs(p)
    p.set_defaults(fn=cmd_analyze)

    p = command("retarget", parents=[domain_arg],
                help="specialize the abstract interpreter to a target")
    p.add_argument("--target", choices=TARGETS, required=True)
    p.add_argument("--emit", type=path, help="write the residual program to this file")
    p.set_defaults(fn=cmd_retarget)

    p = command("analyze-specialized", parents=[domain_arg],
                help="analyze using an emitted residual")
    p.add_argument("residual", type=path, help="residual program file (.met)")
    p.add_argument("program", type=path)
    add_analysis_inputs(p)
    p.set_defaults(fn=cmd_analyze_specialized)

    for name, fn in (("check", cmd_check), ("bench", cmd_bench)):
        p = command(name, parents=[domain_arg])
        p.add_argument("--target", choices=TARGETS, required=True)
        p.add_argument("--trials", type=nonnegative_int, default=1000)
        p.add_argument("--seed", type=integer, default=0)
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)

    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, parsing argv once.

    A request whose first word is a subcommand's name is parsed by that
    subcommand's parser alone; words it does not recognize are reported
    by the top-level parser, as ``argparse`` reports them.  Any other
    argv (none, ``-h``, an unknown word) goes through the top-level
    parser, which prints the help and the usage errors.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except FuelExhausted as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FUEL
    except RetargeterError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
