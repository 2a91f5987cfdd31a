"""README's examples, run as written: the "Library use" snippet against the
top-level API and the "Command line" block through ``cli.main``."""

from __future__ import annotations

import itertools
import re
import shlex
from pathlib import Path

from retargeter.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, language: str) -> str:
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_snippet_prints_documented_output(capsys):
    exec(compile(code_block("## Library use", "python"), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["[15,15]", "[3,33]", "True"]


def test_command_line_examples_print_documented_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = code_block("## Command line", "sh").splitlines()
    compared = []
    for k, line in enumerate(lines):
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        # A command's output is the run of "# " lines right below it.
        below = list(itertools.takewhile(lambda s: s.startswith("# "), lines[k + 1:]))
        documented = "\n".join(s[2:] for s in below) if below else None
        if argv[0] == "printf":
            assert argv[2] == ">", line
            Path(argv[3]).write_text(argv[1])
            continue
        if argv[0] == "cat":
            out = Path(argv[1]).read_text()
        else:
            assert argv[0] == "retargeter", line
            if documented is None:
                # No output to compare (check and bench at 1000 trials take
                # seconds); the flags must still be accepted.
                build_parser().parse_args(argv[1:])
                continue
            assert main(argv[1:]) == 0, line
            out = capsys.readouterr().out
        assert out.rstrip("\n") == documented, line
        compared.append(argv[0])
    assert compared.count("retargeter") == 5 and compared.count("cat") == 1
