"""README's "Library use" snippet, run as written against the top-level API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_prints_documented_output(capsys):
    exec(compile(library_snippet(), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["[15,15]", "[3,33]", "True"]

