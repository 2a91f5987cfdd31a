"""Each oracle stays independent of the code it checks.

A differential oracle that imports the module under test shares its
faults and cannot see them.  This reads each oracle's imports with
``ast``, without running it, and fails if it names a module it checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent

# Oracle file -> the modules it checks and so must not import.
CHECKED = {
    "walker.py": ("retargeter.met.interp",),
    "pe_walker.py": ("retargeter.peval", "retargeter.met.interp"),
    "domain_oracle.py": ("retargeter.domains",),
    "rule_parser.py": ("retargeter.met.parser",),
    "match_printer.py": ("retargeter.met.printer",),
}


def imported_modules(tree: ast.Module) -> set[str]:
    """Every module an ``import`` or ``from ... import`` names, and, for a
    ``from`` import, each name it imports as a submodule would be named."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def forbidden_imports(source: str, checked: tuple[str, ...]) -> set[str]:
    return {module for module in imported_modules(ast.parse(source))
            if any(module == c or module.startswith(c + ".") for c in checked)}


@pytest.mark.parametrize("oracle", sorted(CHECKED))
def test_oracle_imports_none_of_what_it_checks(oracle):
    source = (TESTS / oracle).read_text(encoding="utf-8")
    assert forbidden_imports(source, CHECKED[oracle]) == set()


@pytest.mark.parametrize("source", [
    "from retargeter.met.interp import PRIMITIVES, match_pattern",
    "import retargeter.met.interp",
    "import retargeter.met.interp as interp",
    "from retargeter.met import interp",
    "from retargeter import peval",
    "def f():\n    from retargeter.peval import specialize",
])
def test_the_guard_sees_an_import(source):
    assert forbidden_imports(source, CHECKED["pe_walker.py"])


@pytest.mark.parametrize("source", [
    "from retargeter.met.syntax import Var",
    "from retargeter.met import syntax",
    "from retargeter.errors import StuckError",
    "import walker",
    "from walker import eval_prim, match_pattern",
])
def test_the_guard_allows_other_imports(source):
    assert not forbidden_imports(source, CHECKED["pe_walker.py"])
