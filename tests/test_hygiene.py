"""Source hygiene: no module or script imports a name it never uses, none
defines a private top-level name it never reads, and every module
attribute the README names exists.

No linter ships with the test dependencies, so these checks parse each
module with the standard-library ast instead.  As with flake8, an import
line marked `# noqa: F401` is a deliberate re-export and is skipped.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qsearch"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + SCRIPTS
ALL_MODULES = sorted(SRC.glob("*.py")) + SCRIPTS


def _id(path: Path) -> str:
    return path.name if path.parent == SRC else f"scripts/{path.name}"


def unused_from_imports(source: str) -> list[str]:
    """Names bound by `from ... import` (not __future__) that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_detects_unused_name():
    source = (
        "from math import pi, tau\n"
        "from os import path as p\n"
        "from os import sep  # noqa: F401\n"
        "print(tau)\n"
    )
    assert unused_from_imports(source) == ["pi", "p"]


@pytest.mark.parametrize("path", MODULES, ids=_id)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text()) == []


def orphaned_private_names(source: str) -> list[str]:
    """Top-level `_name` functions, classes and constants the module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_detects_orphaned_private_name():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "__dunder__ = 3\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _orphan():\n"
        "    _orphan_local = 4\n"
        "class _Unread:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper()\n"
    )
    assert orphaned_private_names(source) == ["_UNUSED", "_orphan", "_Unread"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=_id)
def test_no_orphaned_private_names(path):
    assert orphaned_private_names(path.read_text()) == []


_README_REFERENCE = re.compile(r"`(sim|cli|families|synth|circuit)\.(\w+)")


def unresolved_references(text: str) -> list[str]:
    """Backticked `module.name` references to a qsearch module that has no
    attribute of that name."""
    return [
        f"{module}.{name}" for module, name in _README_REFERENCE.findall(text)
        if not hasattr(importlib.import_module(f"qsearch.{module}"), name)
    ]


def test_detects_unresolved_reference():
    text = "`sim.run_exact`, `synth.compile(circuit)`, `qsearch.sim` and `sim.no_such_name`"
    assert unresolved_references(text) == ["sim.no_such_name"]


def test_readme_references_resolve():
    text = (ROOT / "README.md").read_text()
    assert _README_REFERENCE.search(text)
    assert unresolved_references(text) == []
