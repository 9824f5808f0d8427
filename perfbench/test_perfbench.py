"""Self-tests of the benchmark: exact work counters and live reference checks.

Run from the root of a source checkout:

    python3 -m pytest perfbench -q

Traced work runs in fresh interpreters, because the tracer wraps functions
in place for the life of a process.  Sizes are smaller than the benchmark's
so the tests take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402

EXACT = (
    "stationary.gap_evals",
    "stationary.distinct_markets",
    "best_response.iterations",
    "interventions.bisection_evals",
    "simulator.events",
    "dynamics.rhs_evals",
)

# One traced process: a two-scenario scan pass, a small subsidy witness, a
# small simulation and one traced CLI command; prints the per-layer metrics.
TRACED_SMALL = """
import json, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {here!r}]
import workloads
from tracer import Tracer, install, layer_metrics, merge_totals
tracer = Tracer()
install(tracer)
from percolate.interventions import find_subsidy_witness

ref = workloads.load_reference()
scan = workloads.setup_scan(7, ref, tracer, None)
scan["items"] = scan["items"][:2]
workloads.pass_scan(scan, tracer)
find_subsidy_witness(n_max=64)
workloads.MC_POPULATION, workloads.MC_HORIZON, workloads.MC_REPLICATIONS = 2000, 1.0, 2000
workloads.pass_montecarlo(workloads.setup_montecarlo(7, ref, tracer, None), tracer)
cli = workloads.setup_cli(7, ref, tracer, Path({workdir!r}))
cli["commands"] = [c for c in cli["commands"] if c[0] == "simulate-dynamics"]
items = workloads.pass_cli(cli, tracer)
parts = [tracer.totals()] + [i["trace"]["totals"] for i in items if "trace" in i]
print(json.dumps(layer_metrics(merge_totals(parts))))
"""


def _traced_small(workdir: Path) -> dict:
    code = TRACED_SMALL.format(src=str(SRC), here=str(HERE), workdir=str(workdir))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counters_repeat_exactly(tmp_path):
    first = _traced_small(tmp_path / "a")
    second = _traced_small(tmp_path / "b")
    for name in EXACT:
        assert first[name] > 0, name
        assert first[name] == second[name], name
    assert first["stationary.solves"] == second["stationary.solves"]


def _two_scan_items(ref: dict) -> dict:
    inputs = workloads.setup_scan(3, ref, None, None)
    inputs["items"] = inputs["items"][:2]
    return inputs


def test_scan_reference_passes_and_corruption_is_reported():
    ref = workloads.load_reference()
    inputs = _two_scan_items(ref)
    assert all(item["ok"] for item in workloads.pass_scan(inputs, None))

    bad = json.loads(json.dumps(inputs["items"][0][0]))
    assert bad["c_bar"]
    bad["c_bar"] = [c + 1e-6 for c in bad["c_bar"]]
    inputs["items"][0] = (bad, inputs["items"][0][1])
    items = workloads.pass_scan(inputs, None)
    assert len(items) == 2  # the pass completes
    assert not items[0]["ok"] and items[0]["error"]
    assert items[1]["ok"]


def test_montecarlo_checks_are_statistical(monkeypatch):
    monkeypatch.setattr(workloads, "MC_POPULATION", 20_000)
    monkeypatch.setattr(workloads, "MC_HORIZON", 6.0)
    monkeypatch.setattr(workloads, "MC_REPLICATIONS", 20_000)
    ref = workloads.load_reference()
    for seed in (0, 1, 2):
        items = workloads.pass_montecarlo(workloads.setup_montecarlo(seed, ref, None, None), None)
        assert all(item["ok"] for item in items), items

    inputs = workloads.setup_montecarlo(0, ref, None, None)
    inputs["value"] += 1.0  # a wrong solver value must fail the coverage check
    inputs["mu"] = inputs["mu"][::-1].copy()  # and a wrong measure the histogram check
    items = workloads.pass_montecarlo(inputs, None)
    assert [item["ok"] for item in items] == [False, False]


def test_witness_check_rejects_corrupted_reference():
    ref = workloads.load_reference()["witness"]
    w = SimpleNamespace(
        boundary=SimpleNamespace(evaluations=ref["bisection_evals"], active=ref["active"],
                                 inactive=ref["inactive"]),
        baseline=SimpleNamespace(has_active=lambda: False),
        treated=SimpleNamespace(has_active=lambda: True),
        outcome=SimpleNamespace(baseline_trigger=ref["baseline_trigger"],
                                treated_trigger=ref["treated_trigger"], verdict="improves",
                                welfare_delta={0: 0.1, 8: 0.1}),
        tax=ref["tax"],
        delta=ref["delta"],
        params=SimpleNamespace(pi=SimpleNamespace(support=lambda: [0, 8])),
    )
    assert workloads.check_witness(w, ref) is None
    assert workloads.check_witness(w, dict(ref, treated_trigger=ref["treated_trigger"] + 1))
    assert workloads.check_witness(w, dict(ref, tax=ref["tax"] * 1.01))


@pytest.mark.parametrize("seed", [0, 5])
def test_scan_draws_distinct_markets_from_both_strata(seed):
    pool = workloads.load_reference()["scan"]
    chosen = workloads.draw_scan(pool, seed)
    assert chosen == workloads.draw_scan(pool, seed)
    digests = {workloads.scenario_market_digest(e["scenario"]) for e in chosen}
    assert len(digests) == len(chosen) == 2 * workloads.SCAN_PER_STRATUM
    assert {e["scenario"]["c_lo"] for e in chosen} == {0.0, 0.1}
