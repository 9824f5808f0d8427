"""The README's Python examples run as written, at reduced sizes, and its
command lines parse against the CLI as it is."""

from __future__ import annotations

import argparse
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import percolate.cli as cli
from percolate import ModelParams
from conftest import readme_commands

README = Path(__file__).resolve().parents[1] / "README.md"

# Each shrink must match the README text exactly once, so an edit to an
# example's sizes shows up here instead of silently running at full size.
SHRINK = {
    '"n_max": 256': '"n_max": 48',
    "population=100_000": "population=2_000",
    "horizon=50.0": "horizon=5.0",
    "replications=200_000": "replications=2_000",
}


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 2
    source = "\n".join(blocks)
    for full, small in SHRINK.items():
        assert source.count(full) == 1, full
        source = source.replace(full, small)
    exec(compile(source, "<README.md python blocks>", "exec"), {})


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} >= {"solve-stationary", "montecarlo", "sweep"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: percolate {shlex.join(argv)}")


def test_readme_synopsis_names_only_common_flags():
    text = README.read_text(encoding="utf-8")
    (synopsis,) = re.findall(r"^percolate <subcommand> .*$", text, re.M)
    flags = set(re.findall(r"--[a-z][a-z-]*", synopsis))
    assert "--config" in flags
    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in subcommands.choices.items():
        defined = {s for a in sub._actions for s in a.option_strings}
        assert flags <= defined, (name, sorted(flags - defined))


def test_readme_field_table_defaults_are_the_dataclass_defaults():
    text = README.read_text(encoding="utf-8")
    (table,) = re.findall(r"^\| field .*?\n\n", text, re.M | re.S)
    cells = dict(re.findall(r"^\| `(\w+)`\s*\| (.+?)\s+\|", table, re.M))
    assert list(cells) == [f.name for f in fields(ModelParams)]
    default = ModelParams()
    assert default.cost.kind == "linear"
    assert cells.pop("cost") == f"linear, `κ = {default.cost.kappa!r}`"
    assert default.pi.support().tolist() == [1]
    assert cells.pop("pi") == "point mass at 1"
    for name, cell in cells.items():
        assert cell == f"`{getattr(default, name)!r}`", name
