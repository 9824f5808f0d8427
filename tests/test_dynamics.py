"""Measure flow: conservation, fixed points, attraction, diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from percolate import (
    Policy,
    PrecisionMeasure,
    ValidationError,
    integrate,
    load_params,
    mass_loss_check,
    solve_stationary,
)
from percolate import dynamics
from percolate.dynamics import MAX_SNAPSHOTS
from percolate.stationary import balance_residual
from conftest import make_scenario


def _params(**over):
    return load_params(make_scenario(**over))


def test_rhs_vanishes_at_stationary_measure():
    p = _params(c_lo=0.1)
    pol = Policy.trigger_policy(4, p)
    st = solve_stationary(pol, p)
    drift, _ = balance_residual(st.mu.weights, pol, p)
    assert float(np.max(np.abs(drift))) < 1e-10


def test_rhs_is_independent_of_rho():
    p3 = _params(rho=0.3)
    p8 = _params(rho=0.8)
    pol3 = Policy.trigger_policy(3, p3)
    pol8 = Policy.trigger_policy(3, p8)
    w = p3.pi.weights
    np.testing.assert_array_equal(
        balance_residual(w, pol3, p3)[0], balance_residual(w, pol8, p8)[0]
    )


def test_total_mass_is_conserved_along_the_flow():
    for scen in ({"c_lo": 0.0}, {"c_lo": 0.1}, {"c_lo": 0.1, "eta": 0.5}):
        p = _params(**scen)
        pol = Policy.trigger_policy(3, p)
        traj = integrate(p.pi, pol, p, t_end=40.0)
        np.testing.assert_allclose(traj.mass, 1.0, atol=1e-9)
        assert traj.clip_count == 0


def test_stationary_measure_is_a_fixed_point_of_the_flow():
    p = _params(c_lo=0.1)
    pol = Policy.trigger_policy(3, p)
    st = solve_stationary(pol, p)
    traj = integrate(st.mu, pol, p, t_end=100.0)
    assert traj.l1_distance(st.mu) < 1e-8


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
def test_flow_attracts_from_entry_and_point_mass(eta):
    p = _params(eta=eta)
    pol = Policy.trigger_policy(3, p)
    st = solve_stationary(pol, p)
    for mu0 in (p.pi, PrecisionMeasure.point_mass(5, p.n_max)):
        traj = integrate(mu0, pol, p, t_end=50.0 / eta)
        assert traj.l1_distance(st.mu) < 1e-6
        # distance decreases between the first and last snapshots
        assert traj.l1_distance(st.mu, at=-1) < traj.l1_distance(st.mu, at=0)


def test_flow_attracts_from_random_measures():
    p = _params()
    pol = Policy.trigger_policy(2, p)
    st = solve_stationary(pol, p)
    rng = np.random.default_rng(5)
    for _ in range(3):
        w = np.zeros(p.n_max + 1)
        support = rng.integers(1, 12, size=4)
        w[support] = rng.uniform(0.1, 1.0, size=4)
        w /= w.sum()
        traj = integrate(PrecisionMeasure(w), pol, p, t_end=50.0)
        assert traj.l1_distance(st.mu) < 1e-6


def test_snapshot_grid_and_default_spacing():
    p = _params()
    pol = Policy.trigger_policy(3, p)
    traj = integrate(p.pi, pol, p, t_end=10.0)
    assert traj.times[0] == 0.0 and traj.times[-1] == 10.0
    assert len(traj.times) == len(traj.measures) == len(traj.mass)
    fine = integrate(p.pi, pol, p, t_end=10.0, dt_out=0.5)
    assert len(fine.times) == 21
    assert fine.final().total_mass() == pytest.approx(1.0, abs=1e-9)


def test_integrate_calls_solve_ivp_through_the_module_attribute(monkeypatch):
    # A wrapper bound to ``percolate.dynamics.solve_ivp`` sees every integration.
    calls = []
    original = dynamics.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counting)
    p = _params(n_max=16)
    traj = integrate(p.pi, Policy.trigger_policy(3, p), p, t_end=2.0)
    assert calls == [(0.0, 2.0)]
    assert traj.times[-1] == 2.0


@pytest.mark.parametrize("t_end,dt_out", [
    (1.0, 0.0), (1.0, -0.5), (1.0, float("nan")), (1.0, float("inf")),
    (1.0, 1e-300), (float(MAX_SNAPSHOTS) + 1.0, 1.0), (float("inf"), None), (float("nan"), None),
])
def test_bad_observation_grid_is_rejected_before_allocation(t_end, dt_out):
    p = _params(n_max=16)
    with pytest.raises(ValidationError, match="t_end|dt_out"):
        integrate(p.pi, Policy.trigger_policy(3, p), p, t_end=t_end, dt_out=dt_out)


def test_mass_loss_report_in_stable_regime():
    p = _params(c_lo=0.1)
    pol = Policy.trigger_policy(3, p)
    rep = mass_loss_check(pol, p)
    assert rep.stable
    assert rep.limit_mass == 1.0
    assert rep.tail_effort == pytest.approx(0.1)


def test_tail_compartment_accumulates_only_when_unstable():
    p = _params(eta=0.05, c_lo=0.5, n_max=48)
    pol = Policy.constant(1.0, p)
    traj = integrate(p.pi, pol, p, t_end=60.0)
    assert traj.final().tail_mass > 0.1
    np.testing.assert_allclose(traj.mass, 1.0, atol=1e-8)
    stable = _params(n_max=48)
    pol_s = Policy.trigger_policy(3, stable)
    traj_s = integrate(stable.pi, pol_s, stable, t_end=60.0)
    assert traj_s.final().tail_mass < 1e-10
