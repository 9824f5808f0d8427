"""The README's CLI outputs, byte for byte, against the committed golden file.

``golden_readme.json`` holds, for each of the ten commands of the benchmark's
``cli`` workload (``perfbench/workloads.py``, ``cli_commands(0)``) on the
README scenario, the sha256 of the output file and the numbers parsed from
it.  The test runs the commands in-process through ``cli.main`` and compares
bytes.  On a mismatch it names every output that differs, with its largest
absolute and relative difference and the first key that differs.

A change that moves these bytes on purpose rewrites the golden file with
``python tests/test_golden_readme.py`` (``PYTHONPATH=src``) and says so.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_readme.json"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def numbers(name: str, data: bytes) -> dict[str, float]:
    """Every number in an output, keyed by its place: a JSON path or a CSV row and column."""
    found: dict[str, float] = {}
    if name.endswith(".csv"):
        for i, row in enumerate(csv.DictReader(io.StringIO(data.decode()))):
            for col, cell in row.items():
                try:
                    found[f"row {i}.{col}"] = float(cell)
                except ValueError:
                    pass
        return found

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            found[path] = float(node)

    walk(json.loads(data), "")
    return found


def run_readme_commands(workdir: Path) -> dict[str, bytes]:
    """Output name -> bytes of every README command, run in ``workdir``."""
    from percolate import cli

    workloads = _workloads()
    (workdir / "scenario.json").write_text(json.dumps(workloads.README_SCENARIO, indent=2) + "\n")
    outputs: dict[str, bytes] = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in workloads.cli_commands(0):
            assert cli.main(argv) == 0, argv
            name = argv[argv.index("--out") + 1]
            outputs[name] = (workdir / name).read_bytes()
    finally:
        os.chdir(cwd)
    return outputs


def describe(name: str, golden: dict[str, float], got: dict[str, float]) -> str:
    """The largest absolute and relative difference and the first differing key."""
    first = next((k for k in [*golden, *got] if golden.get(k) != got.get(k)), None)
    worst_abs = worst_rel = 0.0
    for key in golden.keys() & got.keys():
        a, b = golden[key], got[key]
        diff = abs(a - b) if math.isfinite(a) and math.isfinite(b) else (0.0 if a == b else math.inf)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / abs(a) if a else (0.0 if diff == 0.0 else math.inf))
    return (f"{name}: largest difference {worst_abs:.3e} absolute, {worst_rel:.3e} relative; "
            f"first differing key {first!r}")


def test_readme_outputs_are_byte_identical_to_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    outputs = run_readme_commands(tmp_path)
    assert sorted(outputs) == sorted(golden)
    differ = [
        describe(name, golden[name]["numbers"], numbers(name, data))
        for name, data in outputs.items()
        if hashlib.sha256(data).hexdigest() != golden[name]["sha256"]
    ]
    assert not differ, "\n".join(differ)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_readme_commands(Path(tmp))
    GOLDEN.write_text(json.dumps(
        {name: {"sha256": hashlib.sha256(data).hexdigest(), "numbers": numbers(name, data)}
         for name, data in outputs.items()},
        indent=1,
    ) + "\n")
    sys.exit(0)
