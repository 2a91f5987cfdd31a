"""Each oracle stays independent of the code it checks.

A differential oracle that imports the module under test shares its
faults and cannot see them.  This reads each oracle's imports with
``ast``, without running it, and fails if it names a module it checks,
or, for an oracle with an allow-list, a package module outside it.

Two product rules are read the same way: the specializer imports no
private name of the evaluator but its compiler table's class, and no
module of the package or of ``tools/`` uses ``syntax.VAbs`` or
``domains.Num``, the two identity shims kept for ``perfbench/``.
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
    # Everything retargeting runs through.
    "direct_analyzer.py": ("retargeter.peval", "retargeter.met", "retargeter.analyzer",
                           "retargeter.retargeting", "retargeter.srclang", "retargeter.cli"),
}

# Oracle file -> the only package modules it may import.
ONLY = {
    "direct_analyzer.py": {"retargeter", "retargeter.domains", "retargeter.tgtlang",
                           "retargeter.tgtlang.INSTRUCTIONS"},
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


@pytest.mark.parametrize("oracle", sorted(ONLY))
def test_oracle_imports_only_what_it_may(oracle):
    source = (TESTS / oracle).read_text(encoding="utf-8")
    package = {m for m in imported_modules(ast.parse(source))
               if m == "retargeter" or m.startswith("retargeter.")}
    assert package <= ONLY[oracle]


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


# The specializer shares the evaluator's compile-time plans through public
# functions; of the evaluator's private names it takes only the class its
# compiler table is built from.
PRODUCT = TESTS.parent / "src" / "retargeter"
SPECIALIZER_MAY_IMPORT_PRIVATE = {"_Compilers"}


def from_module(node: ast.ImportFrom, package: str) -> str:
    """The module a ``from`` import reads, with a relative import resolved
    within ``package``."""
    parts = package.split(".")
    base = parts[:len(parts) - node.level + 1] if node.level else []
    return ".".join(base + ([node.module] if node.module else []))


def imported_names(source: str, package: str) -> set[str]:
    """Every module an ``import`` names and every ``module.name`` a ``from``
    import takes, with a relative import resolved within ``package``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = from_module(node, package)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def private_names_from_interp(source: str) -> set[str]:
    interp = "retargeter.met.interp"
    return {name for name in imported_names(source, "retargeter")
            if name == interp or name.startswith(f"{interp}._")}


def test_the_specializer_imports_no_private_evaluator_name():
    source = (PRODUCT / "peval.py").read_text(encoding="utf-8")
    names = imported_names(source, "retargeter")
    assert {"retargeter.met.interp.pair_call", "retargeter.met.interp.match_plan"} <= names
    assert private_names_from_interp(source) == {
        f"retargeter.met.interp.{name}" for name in SPECIALIZER_MAY_IMPORT_PRIVATE}


@pytest.mark.parametrize("source", [
    "from .met.interp import _leaf",
    "from retargeter.met.interp import tag_table, _flat",
    "from .met import interp",
    "import retargeter.met.interp",
])
def test_the_private_name_rule_sees_an_import(source):
    assert private_names_from_interp(source) - {"retargeter.met.interp._Compilers"}


# An abstract value is a meta value and a number its carrier value, so
# ``syntax.VAbs`` and ``domains.Num`` return their argument; they are kept
# only for ``perfbench/``, which may not be edited with the package.  No
# other module uses them, so deleting both needs edits to ``perfbench/``
# alone.  ``srclang.Num``, the source-language constructor, is another name.
TOOLS = TESTS.parent / "tools"
SHIMS = {"retargeter.met.syntax.VAbs", "retargeter.domains.Num"}


def shim_uses(source: str, package: str) -> set[str]:
    """The shims ``source`` imports by name, or reads as an attribute of a
    module it imports whole, with relative imports resolved within
    ``package``."""
    tree = ast.parse(source)
    used = imported_names(source, package) & SHIMS
    bound = {}                      # local name -> the module or name it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom):
            module = from_module(node, package)
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                dotted = ".".join([bound[node.id], *reversed(attrs)])
                used.update(shim for shim in SHIMS
                            if dotted == shim or dotted.startswith(shim + "."))
    return used


def product_modules():
    """``(path, package)`` for every module of the package and of ``tools/``."""
    for path in sorted(PRODUCT.rglob("*.py")):
        parts = path.relative_to(PRODUCT.parent).with_suffix("").parts
        yield path, ".".join(parts[:-1])
    for path in sorted(TOOLS.glob("*.py")):
        yield path, "tools"


@pytest.mark.parametrize("path, package", list(product_modules()),
                         ids=lambda v: str(v.relative_to(PRODUCT.parent.parent))
                         if isinstance(v, Path) else None)
def test_no_product_module_uses_a_shim(path, package):
    assert shim_uses(path.read_text(encoding="utf-8"), package) == set()


@pytest.mark.parametrize("source, package", [
    ("from .met.syntax import VAbs", "retargeter"),
    ("from .syntax import VAbs as box", "retargeter.met"),
    ("from ..domains import Num", "retargeter.met"),
    ("from retargeter.domains import INTERVAL, Num", "tools"),
    ("from retargeter import domains\ndomains.Num(x)", "tools"),
    ("from . import domains as d\nd.Num(x)", "retargeter"),
    ("import retargeter.met.syntax as s\ns.VAbs(x)", "tools"),
    ("import retargeter.domains\nretargeter.domains.Num(x)", "tools"),
    ("def f():\n    from .met import syntax\n    return syntax.VAbs", "retargeter"),
])
def test_the_shim_rule_sees_a_use(source, package):
    assert shim_uses(source, package)


@pytest.mark.parametrize("source, package", [
    ("from .srclang import Num", "retargeter"),
    ("from retargeter import srclang\nsrclang.Num(1)", "tools"),
    ("from .domains import AbsValue, Interval", "retargeter"),
    ("from ..met.syntax import VInt", "retargeter.met"),
    ("Num = 1\nx.Num(1)", "retargeter"),
])
def test_the_shim_rule_allows_other_names(source, package):
    assert not shim_uses(source, package)
