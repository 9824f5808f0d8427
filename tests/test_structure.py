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


# File IO calls: the builtin ``open`` and the ``pathlib`` readers and writers.
_IO_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_the_cli_touches_files():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _IO_CALLS:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# A result carries every number the library reports; only the CLI writes text.
_REPORTING_MODULES = {"logging", "warnings"}


def test_only_the_cli_prints_and_no_module_logs_or_warns():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                found.append(f"{path.name}:{node.lineno} print")
            elif isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name.split(".")[0] in _REPORTING_MODULES]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").split(".")[0] in _REPORTING_MODULES:
                    found.append(f"{path.name}:{node.lineno} {node.module}")
    assert found == []


def test_the_best_response_layer_never_solves_a_market():
    # It reads a solved market: every stationary solve is its caller's.
    path = PACKAGE / "best_response.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno} import" for a in node.names if a.name == "solve_stationary"]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "solve_stationary":
                found.append(f"{node.lineno} call")
    assert found == []
