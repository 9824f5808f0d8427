"""Shared fixtures: scenario factory and the (expensive) intervention witnesses."""

from __future__ import annotations

import re
import shlex
import tempfile
from pathlib import Path

import pytest

# Hypothesis mines literals from every loaded package module; loading the CLI
# here gives any subset of the suite the same derandomized examples.
import percolate.cli  # noqa: F401
from percolate import load_params
from percolate.interventions import find_education_witness, find_subsidy_witness

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only the property tests need hypothesis
    pass
else:
    # Hypothesis caches the constants it mines from the source at collection,
    # even with no example database; keep that cache out of the working tree.
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "percolate-hypothesis")


# The arrays and event counters of a ``SimOutput``, for whole-run comparisons.
SIM_ARRAYS = ("times", "histograms", "mean_sums", "mean_square_sums", "final_precisions",
              "final_means")
SIM_COUNTERS = ("n_events", "n_matches", "n_resets", "n_exits", "n_pair_rejects",
                "n_precision_caps")


def make_scenario(**overrides) -> dict:
    """Baseline scenario dict; overrides are merged on top."""
    base = {
        "eta": 1.0,
        "eta_prime": 1.0,
        "r": 0.1,
        "rho": 0.5,
        "c_lo": 0.0,
        "c_hi": 1.0,
        "cost": {"type": "linear", "kappa": 0.1},
        "pi": [1.0],
        "n_max": 64,
    }
    base.update(overrides)
    return base


def readme_commands() -> list[list[str]]:
    """The argument lists of the README's ``percolate ...`` shell examples."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["percolate"]:
                commands.append(words[1:])
    return commands


@pytest.fixture
def scenario():
    return make_scenario


@pytest.fixture
def default_params():
    return load_params(make_scenario())


@pytest.fixture(scope="session")
def subsidy_witness():
    return find_subsidy_witness(n_max=128)


@pytest.fixture(scope="session")
def education_witness():
    return find_education_witness(n_max=128)
