"""Source hygiene: no module imports a name it never uses.

No linter ships with the test dependencies, so this check parses each
module with the standard-library ast instead.  As with flake8, an import
line marked `# noqa: F401` is a deliberate re-export and is skipped.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qsearch"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text()) == []
