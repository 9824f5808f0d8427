"""The README's Python examples run as written, at reduced sizes."""

from __future__ import annotations

import re
from pathlib import Path

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
