"""``cli.parse_args`` against ``build_parser().parse_args``.

``main`` hands a request whose first word is a subcommand's name straight
to that subcommand's parser, and everything else to the top-level parser.
Both routes must give what one ``argparse`` parser with subcommands
gives: the same namespace (attribute order included), or the same
``SystemExit`` code, and the same stdout and stderr, byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys

import pytest

from retargeter import cli
from retargeter.cli import build_parser, parse_args

# One valid request per subcommand and form of analysis input.
VALID = [
    ["run", "p.tgt", "--input", "5"],
    ["analyze", "p.tgt", "--domain", "interval", "--input", "-2"],
    ["analyze", "p.tgt", "--domain", "sign", "--abs-input", "{0,+}", "--fuel", "100"],
    ["retarget", "--target", "seq2", "--domain", "sign", "--emit", "r.met"],
    ["analyze-specialized", "r.met", "p.tgt", "--domain", "interval", "--abs-input=[0,3]"],
    ["analyze-specialized", "r.met", "p.tgt", "--domain=sign", "--input=-2", "--fuel=7"],
    ["check", "--domain", "sign", "--target", "single", "--trials", "10", "--seed", "-3"],
    ["bench", "--domain", "interval", "--target", "seq2", "--output", "json"],
]

WORDS = [
    # subcommands, and words that are almost one
    "run", "analyze", "retarget", "analyze-specialized", "check", "bench",
    "analyse", "ru", "Run", "analyze-", "",
    # every flag, whole, abbreviated and with "="
    "--input", "--abs-input", "--domain", "--fuel", "--target", "--emit",
    "--trials", "--seed", "--output", "-h", "--help",
    "--dom", "--abs", "--h", "--he", "--in", "--i", "--t", "--tr", "--se", "--o",
    "--f", "--e", "--a", "--d",
    "--input=-2", "--input=5", "--input=x", "--abs-input=[0,3]", "--abs-input=top",
    "--domain=sign", "--domain=octagon", "--target=single", "--target=seq3",
    "--fuel=0", "--fuel=10", "--trials=-1", "--seed=-7", "--output=json",
    "--dom=interval", "--abs=[1,2]", "--h=x",
    # separators, negative numbers and unknown flags
    "--", "-", "-2", "-0", "-10", "-1e3", "--bogus", "--bogus=1", "-x", "-hx",
    "--inputs", "---input",
    # values, which also make missing or extra positionals
    "p.tgt", "r.met", "interval", "sign", "single", "seq2", "json", "text",
    "[0,3]", "{0,+}", "top", "5", "x", "a b",
]


def outcome(parse, argv):
    """What parsing ``argv`` returns or exits with, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", list(vars(parse(list(argv))).items()))
        except SystemExit as exit_:
            result = ("exit", exit_.code)
    return result, out.getvalue(), err.getvalue()


def assert_same(argv):
    """``argv`` parses as one parser parses it; the shared outcome."""
    fast = outcome(parse_args, argv)
    assert fast == outcome(build_parser().parse_args, argv), argv
    return fast


def mutate(rng: random.Random, argv: list[str]) -> list[str]:
    """``argv`` with one to three words (mostly one) inserted, deleted or
    replaced.  A replaced flag is mostly respelled, abbreviated or joined
    to the next word by ``=``, so that many cases still parse."""
    argv = list(argv)
    for _ in range(rng.choice((1, 1, 2, 3))):
        edit = rng.choice(("insert", "delete", "replace", "respell", "respell"))
        flags = [k for k, word in enumerate(argv) if word.startswith("--")]
        if edit == "insert" or not argv:
            argv.insert(rng.randint(0, len(argv)), rng.choice(WORDS))
        elif edit == "delete":
            del argv[rng.randrange(len(argv))]
        elif edit == "replace" or not flags:
            argv[rng.randrange(len(argv))] = rng.choice(WORDS)
        else:
            k = rng.choice(flags)
            flag = argv[k].partition("=")[0]
            flag = flag[:rng.randint(min(3, len(flag)), len(flag))]
            if k + 1 < len(argv) and rng.random() < 0.5:
                argv[k:k + 2] = [f"{flag}={argv[k + 1]}"]
            else:
                argv[k] = flag + argv[k][len(argv[k].partition("=")[0]):]
    return argv


def test_fuzzed_requests_parse_as_one_parser_parses_them():
    rng = random.Random("cli dispatch")
    cases = [mutate(rng, rng.choice(VALID)) for _ in range(5000)]
    results = [assert_same(argv) for argv in VALID + cases]
    # The cases reach both routes, and a namespace, a usage error and help.
    routes = {argv[0] in build_parser().commands for argv in cases if argv}
    exits = {result for result, _, _ in results if result[0] == "exit"}
    assert routes == {True, False}
    assert len(exits) < len(results) and exits == {("exit", 0), ("exit", 2)}


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["frobnicate", "--input", "5"],
    ["-h", "run"],
    ["--help"],
    ["--", "run", "p.tgt", "--input", "5"],
    ["run", "-h"],
    ["analyze", "--h"],
    ["run", "p.tgt", "--input", "5", "extra", "--bogus"],
])
def test_requests_off_the_fast_route_and_at_its_edges(argv):
    assert_same(argv)


def test_no_argv_is_the_top_level_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        parse_args([])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: retargeter [-h]")
    assert err.endswith("retargeter: error: the following arguments are required: command\n")


def test_an_unknown_subcommand_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exit_:
        parse_args(["frobnicate"])
    assert exit_.value.code == 2
    assert "argument command: invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_help_before_the_subcommand_is_the_top_level_help(capsys):
    with pytest.raises(SystemExit) as exit_:
        parse_args(["-h", "run"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: retargeter [-h]") and "analyze-specialized" in out


def test_unrecognized_arguments_are_reported_with_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exit_:
        parse_args(["run", "p.tgt", "--input", "5", "extra", "--bogus"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: retargeter [-h]") and "{run,analyze," in err
    assert "usage: retargeter run" not in err
    assert err.endswith("retargeter: error: unrecognized arguments: extra --bogus\n")


def test_the_namespace_names_its_subcommand():
    for argv in VALID:
        args = parse_args(argv)
        assert args.command == argv[0] and next(iter(vars(args))) == "command"


def test_no_argv_reads_the_process_arguments(monkeypatch):
    argv = ["run", "p.tgt", "--input", "5"]
    monkeypatch.setattr(sys, "argv", ["retargeter", *argv])
    assert parse_args() == parse_args(argv) == argparse.Namespace(
        command="run", program="p.tgt", input=5, fn=cli.cmd_run)
