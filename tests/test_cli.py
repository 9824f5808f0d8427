"""Command-line round-trips, exit codes, and deterministic output."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import percolate.cli as cli
from percolate import simulator, stationary
from percolate.errors import SolverError
from percolate.model import N_MAX_LIMIT, Policy, load_params
from percolate.stationary import solve_stationary
from conftest import make_scenario, readme_commands
from test_properties import PROPERTY


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_scenario()))
    return str(path)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_stationary_roundtrip(scenario_file, tmp_path):
    out = tmp_path / "st.json"
    rc = cli.main([
        "solve-stationary", "--config", scenario_file, "--policy", "trigger:3",
        "--out", str(out),
    ])
    assert rc == 0
    doc = _load(out)
    res = doc["result"]
    assert abs(sum(res["weights"]) + res["tail_mass"] - 1.0) < 1e-8
    assert res["grid_mass"] == pytest.approx(sum(res["weights"]))
    assert res["c_bar"] > 0
    assert res["stable"] is True
    assert "limit_mass" not in res
    assert doc["manifest"]["tool"] == "percolate"
    assert doc["manifest"]["config_sha256"]
    # Volatile data (timings, output paths) lives only in the sidecar so the
    # main document stays byte-stable across reruns.
    assert "wall_time_s" not in doc["manifest"]
    sidecar = _load(str(out) + ".manifest.json")
    assert sidecar["tool"] == "percolate"
    assert sidecar["wall_time_s"] >= 0
    assert sidecar["outputs"] == [str(out)]


def test_simulate_dynamics_csv(scenario_file, tmp_path):
    out = tmp_path / "traj.csv"
    rc = cli.main([
        "simulate-dynamics", "--config", scenario_file, "--policy", "trigger:2",
        "--t-end", "5", "--dt-out", "1", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    times = sorted({float(r["time"]) for r in rows})
    assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    # Zero-weight bins are omitted; the delta start only has its entry bin.
    t0 = {r["precision"] for r in rows if float(r["time"]) == 0.0}
    assert t0 == {"1", "tail"}
    # Pairs of one-signal searchers pool to two signals and stop there, so the
    # reachable support is exactly {1, 2}.
    final = [r for r in rows if float(r["time"]) == 5.0]
    assert {r["precision"] for r in final} == {"1", "2", "tail"}
    total = sum(float(r["weight"]) for r in final)
    assert abs(total - 1.0) < 1e-6


def test_simulate_dynamics_point_init(scenario_file, tmp_path):
    csv_out = tmp_path / "traj.csv"
    rc = cli.main([
        "simulate-dynamics", "--config", scenario_file, "--policy", "trigger:2",
        "--t-end", "2", "--dt-out", "1", "--init", "point:5", "--out", str(csv_out),
    ])
    assert rc == 0
    with open(csv_out) as fh:
        rows = list(csv.DictReader(fh))
    start = [r for r in rows if float(r["time"]) == 0.0 and r["precision"] != "tail"]
    assert [(r["precision"], float(r["weight"])) for r in start] == [("5", 1.0)]

    json_out = tmp_path / "traj.json"
    rc = cli.main([
        "simulate-dynamics", "--config", scenario_file, "--policy", "trigger:2",
        "--t-end", "2", "--init", "point:5", "--out", str(json_out),
    ])
    assert rc == 0
    res = _load(json_out)["result"]
    assert res["times"][-1] == 2.0
    assert len(res["final_weights"]) == 65
    assert res["mass"][-1] == pytest.approx(1.0, abs=1e-6)
    # The integrator's work counts stay off the main output, which is byte-stable.
    assert sorted(res) == ["clip_count", "clip_magnitude", "final_tail", "final_weights",
                           "l1_gap_to_stationary", "mass", "times"]
    assert res["l1_gap_to_stationary"] > 0


def test_simulate_dynamics_solves_the_stationary_market_only_for_json(scenario_file, tmp_path):
    # The CSV holds the flow alone; only the JSON's l1_gap_to_stationary reads
    # the stationary state, so a market the solve rejects still writes its flow.
    argv = ["simulate-dynamics", "--config", scenario_file, "--policy", "trigger:2",
            "--t-end", "2", "--dt-out", "1", "--out"]
    with mock.patch.object(cli, "solve_stationary", side_effect=SolverError("no stationary state")):
        assert cli.main([*argv, str(tmp_path / "flow.csv")]) == 0
        assert cli.main([*argv, str(tmp_path / "flow.json")]) == 3


def test_best_response_roundtrip(scenario_file, tmp_path):
    out = tmp_path / "br.json"
    rc = cli.main([
        "best-response", "--config", scenario_file, "--market", "trigger:3",
        "--out", str(out),
    ])
    assert rc == 0
    res = _load(out)["result"]
    assert res["market_c_bar"] > 0
    assert isinstance(res["trigger"], int)
    assert len(res["values"]) == 65
    assert 0 < res["contraction_q"] < 1
    lo, hi = res["interval"]
    assert lo <= res["trigger"] <= hi
    assert res["n_bar"] == 30


def test_solve_equilibrium_roundtrip(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(make_scenario(cost={"type": "linear", "kappa": 0.05})))
    out = tmp_path / "eq.json"
    rc = cli.main(["solve-equilibrium", "--config", str(path), "--out", str(out)])
    assert rc == 0
    res = _load(out)["result"]
    assert res["triggers"] == [0, 1, 5, 6]
    assert [e["trigger"] for e in res["equilibria"]] == [0, 1, 5, 6]
    assert res["pareto_best"] == 6
    assert res["n_bar"] == 63
    assert res["scan_bound"] == 63
    assert res["minimal_search"]["is_equilibrium"] is True
    assert res["minimal_search"]["gain"] <= res["minimal_search"]["threshold"]
    for t in res["triggers"]:
        lo, hi = res["correspondence"][str(t)]
        assert lo <= t <= hi
    for eq in res["equilibria"]:
        assert set(eq["value_at_entry"]) == {"1"}
        # Triggers at or below the entry floor leave every populated bin
        # stopped, so only the deeper equilibria carry positive effort.
        if eq["trigger"] > 1:
            assert eq["c_bar"] > 0
        else:
            assert eq["c_bar"] == 0.0


def test_solve_equilibrium_minimal_search_agrees_with_triggers(tmp_path):
    # Entrants hold precision 2, never 1: minimal search is trigger 0's verdict.
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(make_scenario(
        c_lo=0.1, pi={"2": 1.0}, cost={"type": "linear", "kappa": 0.02})))
    out = tmp_path / "eq.json"
    assert cli.main(["solve-equilibrium", "--config", str(path), "--out", str(out)]) == 0
    res = _load(out)["result"]
    assert res["triggers"] == [0, 1, 2, 18]
    assert res["minimal_search"]["is_equilibrium"] is True


def test_intervention_subsidy_roundtrip(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(make_scenario(cost={"type": "linear", "kappa": 0.05})))
    out = tmp_path / "sub.json"
    rc = cli.main([
        "intervention", "subsidy", "--config", str(path), "--delta", "0.02",
        "--out", str(out),
    ])
    assert rc == 0
    res = _load(out)["result"]
    assert res["kind"] == "subsidy"
    assert res["delta"] == 0.02
    assert res["tax"] > 0
    assert res["treated_trigger"] >= res["baseline_trigger"]
    assert res["verdict"] in {"improves", "harms", "ambiguous"}
    assert set(res["welfare_delta_at_entry"]) == {"1"}


def test_matched_subsidy_taxes_the_matched_equilibrium(scenario_file, tmp_path):
    # The treated market has triggers 0..3; the match for the baseline's
    # trigger 1 searches at c_bar = 0, so no subsidy is paid and none is taxed
    # (the Pareto-best treated trigger 3 would charge delta * c_bar / eta).
    out = tmp_path / "matched.json"
    rc = cli.main([
        "intervention", "subsidy", "--config", scenario_file, "--delta", "0.02",
        "--selection", "matched", "--out", str(out),
    ])
    assert rc == 0
    res = _load(out)["result"]
    assert res["baseline_trigger"] == res["treated_trigger"] == 1
    assert res["tax"] == 0.0
    assert res["welfare_delta_at_entry"] == {"1": 0.0}
    assert res["verdict"] == "ambiguous"


# Both used to fail inside CostSpec with a message about a negative slope.
SUBSIDY_ABOVE_COST = {
    "linear-delta": ({}, ["intervention", "subsidy", "--delta", "0.2"], "0.2", "0.1"),
    "tabulated-field": (
        {"cost": {"type": "tabulated", "points": [[0.0, 0.0], [0.5, 0.05], [1.0, 0.15]]},
         "subsidy": 0.15},
        ["solve-stationary", "--policy", "trigger:1"], "0.15", "0.1",
    ),
}


@pytest.mark.parametrize("overrides,argv,subsidy,floor", list(SUBSIDY_ABOVE_COST.values()),
                         ids=list(SUBSIDY_ABOVE_COST))
def test_subsidy_above_marginal_cost_exits_2(tmp_path, capsys, overrides, argv, subsidy, floor):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(make_scenario(**overrides)))
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"subsidy {subsidy} exceeds the marginal cost of effort {floor}" in err
    assert not out.exists()


def test_intervention_educate_roundtrip(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(make_scenario(cost={"type": "linear", "kappa": 0.02})))
    out = tmp_path / "edu.json"
    rc = cli.main([
        "intervention", "educate", "--config", str(path), "--signals", "1",
        "--out", str(out),
    ])
    assert rc == 0
    res = _load(out)["result"]
    assert res["kind"] == "educate"
    assert res["signals"] == 1
    assert res["tax"] == 0.0
    assert res["treated_trigger"] <= res["baseline_trigger"]
    assert res["verdict"] in {"improves", "harms", "ambiguous"}


def test_montecarlo_run_and_value(scenario_file, tmp_path):
    out = tmp_path / "mc.json"
    rc = cli.main([
        "montecarlo", "run", "--config", scenario_file, "--policy", "trigger:3",
        "--population", "4000", "--horizon", "10", "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    res = _load(out)["result"]
    assert res["population"] == 4000
    assert res["events"] == res["matches"] + res["resets"] + res["exits"]
    assert len(res["final_frequencies"]) == len(res["solver_weights"])
    assert res["max_frequency_gap"] < 0.05

    # trigger:1 is a fixed point here, so the simulated policy value and the
    # solver's optimal value at the entry bin coincide up to sampling noise.
    out2 = tmp_path / "val.json"
    rc = cli.main([
        "montecarlo", "value", "--config", scenario_file, "--policy", "trigger:1",
        "--replications", "5000", "--seed", "5", "--out", str(out2),
    ])
    assert rc == 0
    res2 = _load(out2)["result"]
    assert res2["entry_precision"] == 1
    assert res2["replications"] == 5000
    assert abs(res2["estimate"] - res2["solver_value"]) < 4 * res2["half_width"]


def test_counterexample_roundtrip(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(make_scenario(
        c_hi=1.5, pi={"1": 0.2, "2": 0.6, "3": 0.2},
    )))
    out = tmp_path / "cx.json"
    rc = cli.main(["counterexample", "--config", str(path), "--out", str(out)])
    assert rc == 0
    res = _load(out)["result"]
    # Extra first-rung effort thins the effort-weighted mass above it even
    # though it raises average effort.
    assert res["derivative_mass_above_2_wrt_c1"] == pytest.approx(-0.00576997, abs=1e-4)
    assert res["derivative_average_effort_wrt_c1"] == pytest.approx(0.0731143, abs=1e-4)
    assert res["epsilon"] == 1e-3
    assert not res["reduced_dominates"] and not res["full_dominates"]
    assert res["relation"] == "crossing"
    assert res["first_violation_reduced"] in (0, 1)
    assert res["first_violation_full"] == 2


def test_counterexample_derivative_is_exact(scenario_file, tmp_path):
    # Search at c1 with one signal only is a trigger-2 market: eta = 1 and
    # every entrant holds one signal, so c_bar (1 + c1 c_bar) = c1, i.e.
    # c_bar = (sqrt(1 + 4 c1^2) - 1) / (2 c1), and dc_bar/dc1 = (5 - sqrt(5)) / 10
    # at c1 = 1.  A one-sided difference at c1 = c_hi was 6.8e-7 off.
    out = tmp_path / "ce.json"
    assert cli.main(["counterexample", "--config", scenario_file, "--c1", "1", "--c2", "0",
                     "--out", str(out)]) == 0
    res = _load(out)["result"]
    assert abs(res["derivative_average_effort_wrt_c1"] - (5 - 5 ** 0.5) / 10) <= 1e-14
    assert res["derivative_mass_above_2_wrt_c1"] == 0.0


def test_counterexample_moves_the_zero_bin_with_the_first_rung(tmp_path):
    # With entry mass at precision 0, c1 is also the effort there (from_list
    # copies precision 1 to 0), so both derivatives must match a 5-point
    # difference of the two-rung market in c1.
    scenario = make_scenario(c_hi=2.0, pi={"0": 0.25, "1": 0.75})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "ce.json"
    assert cli.main(["counterexample", "--config", str(path), "--out", str(out)]) == 0
    res = _load(out)["result"]
    params = load_params(scenario)

    def masses(c1):
        nu = solve_stationary(Policy.from_list([c1, 1.0, 0.0], params), params).nu().weights
        return np.array([nu.sum(), nu[2:].sum()])

    h = 1e-3
    fd = (8 * (masses(1 + h) - masses(1 - h)) - (masses(1 + 2 * h) - masses(1 - 2 * h))) / (12 * h)
    exact = [res["derivative_average_effort_wrt_c1"], res["derivative_mass_above_2_wrt_c1"]]
    np.testing.assert_allclose(exact, fd, rtol=0, atol=1e-9)


@pytest.mark.parametrize("over, argv", [
    ({"eta_prime": 1e-12, "c_lo": 0.1}, ["value"]),
    ({"eta": 1e6}, ["run"]),
    ({"c_hi": 1e200}, ["run"]),
], ids=["value-tiny-exit", "run-huge-replacement", "run-effort-squared-overflows"])
def test_simulations_past_the_event_bound_exit_3_within_a_second(tmp_path, capsys, over, argv):
    # One value replication expects about c c_bar / eta' jumps: 1e12 here,
    # where 77,000 took 110 ms.  The run faces 5e12 events at its default size,
    # and an infinite bound where c_max^2 overflows.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(make_scenario(n_max=256, **over)))
    out = tmp_path / "mc.json"
    started = time.perf_counter()
    assert cli.main(["montecarlo", *argv, "--config", str(scenario), "--policy", "trigger:3",
                     "--out", str(out)]) == 3
    assert time.perf_counter() - started < 1.0
    assert "MAX_EVENTS" in capsys.readouterr().err
    assert not out.exists()


def test_policy_list_file(scenario_file, tmp_path):
    plist = tmp_path / "efforts.json"
    plist.write_text(json.dumps([1.0, 1.0, 0.5, 0.0]))
    out = tmp_path / "st.json"
    rc = cli.main([
        "solve-stationary", "--config", scenario_file,
        "--policy", f"list:{plist}", "--out", str(out),
    ])
    assert rc == 0
    assert _load(out)["result"]["c_bar"] > 0


def test_sweep_writes_csv(scenario_file, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"eta": [0.5, 1.0], "rho": [0.3, 0.5]}))
    out = tmp_path / "sweep.csv"
    rc = cli.main([
        "sweep", "--config", scenario_file, "--grid", str(grid),
        "--task", "solve-stationary", "--policy", "trigger:3", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {(r["eta"], r["rho"]) for r in rows} == {
        ("0.5", "0.3"), ("0.5", "0.5"), ("1.0", "0.3"), ("1.0", "0.5")
    }
    assert all(float(r["c_bar"]) > 0 for r in rows)
    assert all(0 <= float(r["tail_mass"]) < 0.1 for r in rows)


def test_sweep_shares_stationary_solves_across_grid_points(tmp_path, monkeypatch):
    monkeypatch.setattr(stationary, "_memo", OrderedDict())
    solved = []
    real_solve = stationary._solve

    def counted(policy, params):
        solved.append(params.eta)
        return real_solve(policy, params)

    monkeypatch.setattr(stationary, "_solve", counted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(json.dumps(make_scenario()))
    (argv,) = [argv for argv in readme_commands() if argv[0] == "sweep"]
    policy = argv[argv.index("--policy") + 1]
    assert cli.main(argv) == 0
    # rho enters only the best response: the four points are two markets,
    # each solved once, in this process.
    assert solved == [0.5, 1.0]
    with open(argv[argv.index("--out") + 1]) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["eta"], r["rho"]) for r in rows] == [
        ("0.5", "0.3"), ("0.5", "0.5"), ("1.0", "0.3"), ("1.0", "0.5")
    ]
    for row in rows:
        point = tmp_path / "point.json"
        point.write_text(json.dumps(make_scenario(eta=float(row["eta"]), rho=float(row["rho"]))))
        stationary._memo.clear()
        assert cli.main(["solve-stationary", "--config", str(point), "--policy", policy,
                         "--out", str(tmp_path / "point_state.json")]) == 0
        doc = _load(tmp_path / "point_state.json")
        for key in ("c_bar", "grid_mass", "tail_mass"):
            assert float(row[key]) == doc["result"][key], (row, key)


def test_sweep_accepts_inline_grid(scenario_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main([
        "sweep", "--config", scenario_file, "--grid", '{"eta": [0.5, 1.0]}',
        "--task", "solve-stationary", "--policy", "trigger:3", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["eta"] for r in rows] == ["0.5", "1.0"]


def test_sweep_honours_n_max(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(make_scenario(c_lo=0.1)))
    flags = ["--config", str(scenario), "--policy", "trigger:3", "--n-max", "16"]
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--grid", '{"eta": [1.0]}', "--out", str(out)] + flags) == 0
    state = tmp_path / "state.json"
    assert cli.main(["solve-stationary", "--out", str(state)] + flags) == 0
    with open(out) as fh:
        (row,) = list(csv.DictReader(fh))
    doc = _load(state)
    assert len(doc["result"]["weights"]) == 17
    for key in ("c_bar", "grid_mass", "tail_mass"):
        assert float(row[key]) == doc["result"][key], key
    sidecar = _load(str(out) + ".manifest.json")
    assert sidecar["config_sha256"] == doc["manifest"]["config_sha256"]


def test_sweep_grid_over_n_max_overrides_the_n_max_flag(tmp_path, monkeypatch):
    """--n-max sets the base scenario's grid; a grid over n_max then sets each row's."""
    monkeypatch.setattr(stationary, "_memo", OrderedDict())
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(make_scenario()))
    flags = ["--config", str(scenario), "--policy", "const:0.9"]
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--n-max", "16", "--grid", '{"n_max": [8, 32]}',
                     "--task", "solve-stationary", "--out", str(out)] + flags) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["n_max"] for row in rows] == ["8.0", "32.0"]
    state = tmp_path / "state.json"
    for row in rows:
        n_max = int(float(row["n_max"]))
        stationary._memo.clear()
        assert cli.main(["solve-stationary", "--n-max", str(n_max), "--out", str(state)] + flags) == 0
        doc = _load(state)
        assert len(doc["result"]["weights"]) == n_max + 1
        for key in ("c_bar", "grid_mass", "tail_mass"):
            assert float(row[key]) == doc["result"][key], (n_max, key)


def test_sweep_over_a_list_valued_field(scenario_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main([
        "sweep", "--config", scenario_file, "--grid", '{"pi": [[0.5, 0.5], [1.0]]}',
        "--task", "solve-stationary", "--policy", "trigger:3", "--out", str(out),
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [json.loads(r["pi"]) for r in rows] == [[0.5, 0.5], [1.0]]
    assert all(float(r["c_bar"]) > 0 for r in rows)


def test_sweep_rejects_an_invalid_base_before_any_grid_point(tmp_path, monkeypatch):
    calls = []
    for solver in ("solve_stationary", "find_equilibria"):
        monkeypatch.setattr(cli, solver, lambda *a, **k: calls.append(a))
    # The grid would replace the bad eta, but the base scenario is checked first.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_scenario(eta=-1)))
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", str(bad), "--grid", '{"eta": [0.5, 1.0]}',
                   "--out", str(out)])
    assert rc == 2
    assert calls == []
    assert not out.exists()


def test_sweep_requires_out(scenario_file, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"eta": [0.5]}))
    assert cli.main(["sweep", "--config", scenario_file, "--grid", str(grid)]) == 2


def test_sweep_rejects_malformed_grids(scenario_file, tmp_path):
    out = str(tmp_path / "sweep.csv")
    base = ["sweep", "--config", scenario_file, "--task", "solve-stationary", "--out", out]
    assert cli.main(base + ["--grid", '{"eta": 0.5}']) == 2
    assert cli.main(base + ["--grid", '{"eta": [0.5']) == 2
    assert cli.main(base + ["--grid", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# Exit codes and determinism
# ---------------------------------------------------------------------------


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_scenario(rho=1.5)))
    assert cli.main(["solve-stationary", "--config", str(bad), "--policy", "trigger:1"]) == 2
    for overrides, named in [
        ({"pi": {"1": 1.0, "01": 1.0}}, "precision 1 twice"),
        ({"pi": {"1": 0.5, "01": 0.5}}, "precision 1 twice"),
        ({"cost": {"type": "linear", "kappa": 0.1, "kapa": 0.5}}, "'kapa'"),
        ({"cost": {"type": "linear", "kappa": 0.1, "points": 5}}, "'points'"),
        ({"cost": {"type": "tabulated", "points": [[0, 0], [1, 0.1]], "kappa": 0.3}}, "'kappa'"),
        ({"cost": {"type": "tabulated", "points": [[0, 0], [0.5, 0.05]]}}, "do not cover"),
    ]:
        bad.write_text(json.dumps(make_scenario(**overrides)))
        capsys.readouterr()
        rc = cli.main(["solve-stationary", "--config", str(bad), "--policy", "trigger:1"])
        assert rc == 2, overrides
        assert named in capsys.readouterr().err, overrides


def test_unreadable_or_non_object_scenario_file_exits_2(tmp_path, capsys):
    # main reads the scenario file itself; load_params takes only a mapping.
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([make_scenario()]))
    for path, named in [(listed, "must hold a JSON object"),
                        (tmp_path / "missing.json", "cannot read scenario file")]:
        capsys.readouterr()
        assert cli.main(["solve-stationary", "--config", str(path), "--policy", "trigger:1"]) == 2
        assert named in capsys.readouterr().err


def test_non_finite_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_scenario(r=float("inf"))))  # written as Infinity
    assert cli.main(["solve-stationary", "--config", str(bad), "--policy", "trigger:1"]) == 2


def test_non_numeric_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_scenario(eta="abc")))
    assert cli.main(["solve-stationary", "--config", str(bad), "--policy", "trigger:1"]) == 2
    bad.write_text(json.dumps(make_scenario(n_max=2.7)))
    assert cli.main(["solve-stationary", "--config", str(bad), "--policy", "trigger:1"]) == 2
    bad.write_text(json.dumps(make_scenario(cost="linear")))
    assert cli.main(["solve-stationary", "--config", str(bad), "--policy", "trigger:1"]) == 2


def test_missing_files_exit_2(scenario_file, tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["solve-stationary", "--config", missing, "--policy", "trigger:1"]) == 2
    assert cli.main([
        "solve-stationary", "--config", scenario_file, "--policy", f"list:{missing}",
    ]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["solve-stationary", "--config", str(garbled), "--policy", "trigger:1"]) == 2


def test_bad_policy_spec_exits_2(scenario_file, tmp_path):
    rc = cli.main(["solve-stationary", "--config", scenario_file, "--policy", "trigger:bogus"])
    assert rc == 2
    plist = tmp_path / "efforts.json"
    plist.write_text(json.dumps(["a", 1]))
    rc = cli.main(["solve-stationary", "--config", scenario_file, "--policy", f"list:{plist}"])
    assert rc == 2


def test_bad_initial_condition_and_grid_size_exit_2(scenario_file):
    assert cli.main([
        "simulate-dynamics", "--config", scenario_file, "--policy", "trigger:1",
        "--t-end", "1", "--init", "point:abc",
    ]) == 2
    # The scenario's pi is a list, which would be laid out on the grid first;
    # 10^11 bins would need hundreds of GiB.
    for n_max in ("-5", "1", str(N_MAX_LIMIT + 1), "100000000000"):
        assert cli.main([
            "solve-stationary", "--config", scenario_file, "--policy", "trigger:1",
            "--n-max", n_max,
        ]) == 2


# Each of these crashed or simulated a NaN state before the flags were
# checked at parse time.
_MC_RUN = ["montecarlo", "run", "--policy", "trigger:3", "--population", "50", "--horizon", "1"]
_DYNAMICS = ["simulate-dynamics", "--policy", "trigger:3", "--t-end", "1"]
BAD_NUMERIC_FLAGS = {
    "replications-0": ["montecarlo", "value", "--policy", "trigger:1", "--replications", "0"],
    "value-population-0": ["montecarlo", "value", "--policy", "trigger:1", "--population", "0"],
    "dt-out-0": _DYNAMICS + ["--dt-out", "0"],
    "t-end-nan": ["simulate-dynamics", "--policy", "trigger:3", "--t-end", "nan"],
    "horizon-nan": _MC_RUN + ["--horizon", "nan"],
    "horizon-inf": _MC_RUN + ["--horizon", "inf"],
    "seed-negative": _MC_RUN + ["--seed", "-1"],
    "dt-out-negative": _DYNAMICS + ["--dt-out", "-1"],
    "y-nan": _MC_RUN + ["--y", "nan"],
}


@pytest.mark.parametrize("argv", list(BAD_NUMERIC_FLAGS.values()), ids=list(BAD_NUMERIC_FLAGS))
def test_bad_numeric_flags_exit_2_when_parsed(tmp_path, argv):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(make_scenario(n_max=16)))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--config", str(scenario), "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2


def test_too_fine_observation_grid_exits_2(scenario_file, tmp_path):
    # Passes the flag check, then used to fail in numpy's allocator (exit 1).
    assert cli.main(_DYNAMICS + [
        "--config", scenario_file, "--dt-out", "1e-300", "--out", str(tmp_path / "traj.json"),
    ]) == 2


def test_effort_list_longer_than_the_grid_exits_2(scenario_file, tmp_path, capsys):
    # Entries past n_max used to be dropped: counterexample's three rungs ran
    # as the all-search market [1, 1, 1] at n_max 2, and exited 0.
    # counterexample checks the grid itself, so its message names n_max, not
    # its three rungs, an effort list the user never gave.
    out = tmp_path / "ce.json"
    assert cli.main(["counterexample", "--config", scenario_file, "--n-max", "2",
                     "--out", str(out)]) == 2
    assert "counterexample needs n_max >= 3, got n_max=2" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["counterexample", "--config", scenario_file, "--n-max", "3",
                     "--out", str(out)]) == 0
    plist = tmp_path / "efforts.json"
    plist.write_text(json.dumps([0.5, 0.5, 0.1, 0.2]))
    assert cli.main(["solve-stationary", "--config", scenario_file, "--n-max", "4",
                     "--policy", f"list:{plist}"]) == 0
    capsys.readouterr()
    assert cli.main(["solve-stationary", "--config", scenario_file, "--n-max", "3",
                     "--policy", f"list:{plist}"]) == 2
    assert "effort list of length 4 exceeds n_max=3" in capsys.readouterr().err


def test_stiff_measure_flow_exits_3_within_seconds(tmp_path, capsys):
    # RK45's step is bounded by stability, so its work grows with c_hi * c_bar * t_end;
    # without a cap this flow ran for about 100 s and 4 million evaluations.
    scenario = tmp_path / "stiff.json"
    scenario.write_text(json.dumps(make_scenario(
        eta_prime=2.54, r=10.0, rho=0.9, c_lo=0.5, c_hi=1e6,
        cost={"type": "linear", "kappa": 1.0}, pi=[1 / 3, 1 / 3, 1 / 3], n_max=3,
    )))
    out = tmp_path / "traj.json"
    started = time.perf_counter()
    rc = cli.main(["simulate-dynamics", "--config", str(scenario), "--policy", "trigger:2",
                   "--t-end", "2", "--out", str(out)])
    assert rc == 3
    assert time.perf_counter() - started < 60.0
    assert "too stiff" in capsys.readouterr().err
    assert not out.exists()


def test_stationary_mass_lost_to_underflow_exits_3(tmp_path, capsys):
    # At eta = 1e-300 the convolution overflow over eta underflows to a tail
    # mass of 0, so nearly all of the unit mass is lost, while every balance
    # residual is about 1e-300.  The solve used to log a warning and exit 0.
    scenario = tmp_path / "tiny-eta.json"
    scenario.write_text(json.dumps(make_scenario(
        eta=1e-300, c_lo=1e6, c_hi=1e6, cost={"type": "linear", "kappa": 1e6}, n_max=3,
    )))
    out = tmp_path / "st.json"
    rc = cli.main(["solve-stationary", "--config", str(scenario), "--policy", "const:1e6",
                   "--out", str(out)])
    assert rc == 3
    assert "stationary mass 0.0000000000 deviates from 1" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [scenario]


def test_tolerance_flag_is_not_accepted(scenario_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-stationary", "--config", scenario_file, "--policy", "trigger:3",
                  "--tol", "1e-11"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    ("solve-stationary", ["--h", "0.1", "--policy", "trigger:3"]),
    ("solve-stationary", ["--pol", "trigger:3"]),
    ("counterexample", ["--h", "0.1"]),
], ids=["h", "pol", "counterexample-h"])
def test_abbreviated_flags_exit_2_and_write_nothing(scenario_file, tmp_path, command, flag):
    # "--h" once read as "--help" (usage printed, exit 0) and "--pol" as
    # "--policy".  counterexample computes its derivatives exactly and has no
    # step flag, so "--h" is an unknown option there too.
    out = tmp_path / "st.json"
    argv = [command, "--config", scenario_file, "--out", str(out), *flag]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [Path(scenario_file)]


@pytest.mark.parametrize("entry", ["-1", "65"])
def test_value_entry_off_the_grid_exits_2(scenario_file, entry):
    assert cli.main([
        "montecarlo", "value", "--config", scenario_file, "--policy", "trigger:1",
        "--replications", "50", "--entry", entry,
    ]) == 2


def test_solver_failure_exits_3(scenario_file, monkeypatch):
    def boom(*a, **k):
        raise SolverError("stub failure")

    monkeypatch.setattr(cli, "solve_stationary", boom)
    rc = cli.main(["solve-stationary", "--config", scenario_file, "--policy", "trigger:1"])
    assert rc == 3


def test_reruns_are_byte_identical(scenario_file, tmp_path):
    out = tmp_path / "eq.json"
    argv = ["solve-equilibrium", "--config", scenario_file, "--out", str(out)]
    digests = []
    for _ in range(2):
        assert cli.main(argv) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_manifest_records_the_invocation(scenario_file, tmp_path):
    out = tmp_path / "state.json"
    argv = [
        "solve-stationary", "--config", scenario_file,
        "--policy", "trigger:2", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["command"] == argv


# Runs the console script in an interpreter where any scipy import raises.
NO_SCIPY = 'import sys; sys.modules["scipy"] = None; from percolate.cli import main; sys.exit(main())'
# The README's Monte Carlo sizes, shrunk to keep each command under a second.
README_SHRINK = {"100000": "2000", "200000": "2000", "50": "5"}


def test_importing_the_cli_loads_no_scipy(tmp_path, monkeypatch):
    # In a fresh interpreter: the test process has scipy loaded already.
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import percolate.cli, sys; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"

    # Every README command runs on numpy alone.
    (tmp_path / "scenario.json").write_text(json.dumps(make_scenario()))
    commands = readme_commands()
    assert {argv[0] for argv in commands} >= {"simulate-dynamics", "montecarlo", "sweep"}
    for argv in commands:
        if argv[0] == "montecarlo":
            argv = [README_SHRINK.get(word, word) for word in argv]
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr[-500:])
        if argv[0] == "simulate-dynamics":
            flow_argv, flow_out = argv, argv[argv.index("--out") + 1]
    # ... and the flow it writes is the one this (scipy-loaded) process writes.
    (tmp_path / "in_process").mkdir()
    monkeypatch.chdir(tmp_path / "in_process")
    (tmp_path / "in_process" / "scenario.json").write_text(json.dumps(make_scenario()))
    assert cli.main(flow_argv) == 0
    assert (tmp_path / "in_process" / flow_out).read_bytes() == (tmp_path / flow_out).read_bytes()


# ---------------------------------------------------------------------------
# Every subcommand exits 0, 2 or 3 on small scenarios with extreme values
# ---------------------------------------------------------------------------

FUZZ_VALUES = (0.0, 1e-300, 1e-12, 0.5, 1.0, 1e6)
# Expected simulator events a fuzzed Monte Carlo run is sized for.
FUZZ_EVENTS = 1e5


@st.composite
def fuzz_cases(draw):
    """A small scenario, possibly invalid, and the flags every subcommand gets on it."""
    value = st.sampled_from(FUZZ_VALUES)
    positive = st.sampled_from(FUZZ_VALUES[1:])
    n_max = draw(st.integers(2, 16))
    c_lo, c_hi = sorted((draw(value), draw(value)))
    support = draw(st.lists(st.integers(0, n_max), min_size=1, max_size=3, unique=True))
    raw = [draw(positive) for _ in support]
    weights = [w / sum(raw) for w in raw]
    if draw(st.booleans()):
        pi = {str(k): w for k, w in zip(support, weights)}
    else:  # a list holds precisions 1..len
        pi = [0.0] * max(max(support), 1)
        for k, w in zip(support, weights):
            pi[max(k, 1) - 1] += w
    if draw(st.integers(0, 3)):
        cost = {"type": "linear", "kappa": draw(value)}
    else:  # convex when the drawn slopes rise; otherwise an input error
        knots = sorted({c_lo, c_hi, draw(value)})
        slopes = sorted(draw(value) for _ in knots[1:])
        points, k = [[knots[0], 0.0]], 0.0
        for lo, hi, slope in zip(knots, knots[1:], slopes):
            k += slope * (hi - lo)
            points.append([hi, k])
        cost = {"type": "tabulated", "points": points}
    scenario = make_scenario(
        n_max=n_max, c_lo=c_lo, c_hi=c_hi, pi=pi, cost=cost, eta=draw(positive),
        eta_prime=draw(positive), r=draw(positive), rho=draw(st.sampled_from((0.0, 1e-12, 0.5))),
        public_signals=draw(st.integers(0, 2)),
        subsidy=draw(st.sampled_from((0.0, 0.0, 1e-12, 0.5))),
    )
    ends = st.sampled_from((c_lo, c_hi))
    policy = draw(st.sampled_from(["trigger:0", "trigger:1", "trigger:3", "trigger:17",
                                   f"const:{c_lo!r}", f"const:{c_hi!r}"]))
    # The Monte Carlo runs are sized to expect about FUZZ_EVENTS events by the
    # bounds the simulator checks; the measure flow gets t_end = 100 / stiffness.
    eta, eta_prime = scenario["eta"], scenario["eta_prime"]
    population = draw(st.integers(2, 20))
    horizon = min(5.0, FUZZ_EVENTS / (population * (c_hi * c_hi / 2 + eta + eta_prime)))
    replications = max(1, int(FUZZ_EVENTS / (1.0 + c_hi * c_hi / eta_prime)))
    t_end = min(5.0, 100.0 / (eta + c_hi * c_hi))
    grid = json.dumps({draw(st.sampled_from(["eta", "rho", "c_hi"])): [draw(value), draw(value)]})
    commands = [
        ["solve-stationary", "--policy", policy],
        ["simulate-dynamics", "--policy", policy, "--t-end", repr(t_end)],
        ["best-response", "--market", policy],
        ["solve-equilibrium"],
        ["intervention", "subsidy", "--delta", repr(draw(value))],
        ["intervention", "educate", "--signals", str(draw(st.integers(0, 2)))],
        ["montecarlo", "run", "--policy", policy, "--population", str(population),
         "--horizon", repr(horizon)],
        ["montecarlo", "value", "--policy", policy, "--replications", str(replications),
         "--entry", str(draw(st.integers(0, n_max)))],
        ["counterexample", "--c1", repr(draw(ends)), "--c2", repr(draw(ends)),
         "--eps", repr(draw(value))],
        ["sweep", "--grid", grid, "--task",
         draw(st.sampled_from(["solve-stationary", "solve-equilibrium"])), "--policy", policy],
    ]
    return scenario, commands


@settings(PROPERTY, max_examples=80)
@given(fuzz_cases())
def test_every_subcommand_exits_cleanly_on_extreme_scenarios(tmp_path_factory, case):
    # Exit 0, 2 (invalid input, argparse's included) or 3 (solver failure),
    # never an uncaught exception.  One replication can expect more than
    # FUZZ_EVENTS events on its own; the lowered bound makes such a run exit 3
    # at once instead of running for seconds.
    scenario, commands = case
    work = tmp_path_factory.mktemp("fuzz")
    config = work / "scenario.json"
    config.write_text(json.dumps(scenario))
    with mock.patch.object(simulator, "MAX_EVENTS", 2 * FUZZ_EVENTS):
        for argv in commands:
            try:
                rc = cli.main(argv + ["--config", str(config), "--out", str(work / "out")])
            except SystemExit as exc:
                rc = exc.code
            assert rc in (0, 2, 3), argv
