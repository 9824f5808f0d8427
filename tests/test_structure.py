"""Module boundaries of the package, read from its source."""

from __future__ import annotations

import ast
from pathlib import Path

import percolate

PACKAGE = Path(percolate.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("percolate"):
                continue
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if _is_private(a.name)]
    assert found == []
