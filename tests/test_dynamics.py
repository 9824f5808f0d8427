"""Measure flow: conservation, fixed points, attraction, diagnostics, and the
RK45 port against scipy's ``solve_ivp`` as the oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from percolate import (
    Policy,
    PrecisionMeasure,
    SolverError,
    ValidationError,
    integrate,
    load_params,
    mass_loss_check,
    solve_stationary,
)
from percolate import dynamics
from percolate.dynamics import MAX_SNAPSHOTS, ODE_ATOL, ODE_RTOL
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
    # A spacing that does not divide t_end still ends the grid at t_end.
    coarse = integrate(p.pi, pol, p, t_end=20.0, dt_out=7.0)
    assert coarse.times.tolist() == [0.0, 7.0, 14.0, 20.0]


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


def _hold_to_scipy(monkeypatch) -> list:
    """Make every integration also run scipy's RK45 on the same flow; returns (port, scipy) pairs."""
    port = dynamics.solve_ivp
    pairs = []

    def both(fun, t_span, y0, t_eval, atol, rtol):
        ours = port(fun, t_span, y0, t_eval=t_eval, atol=atol, rtol=rtol)
        ref = scipy_solve_ivp(fun, t_span, y0, method="RK45", t_eval=t_eval, atol=atol,
                              rtol=rtol)
        pairs.append((ours, ref))
        return ours

    monkeypatch.setattr(dynamics, "solve_ivp", both)
    return pairs


def _assert_same_solution(ours, ref):
    assert ours.success and ref.success
    assert ours.t.tobytes() == ref.t.tobytes()
    assert ours.y.shape == ref.y.shape and ours.y.tobytes() == ref.y.tobytes()
    assert ours.nfev == ref.nfev


def test_rk45_port_matches_scipy_on_the_criterion_2_flows(monkeypatch):
    # Criterion 2's grid at n_max = 256, without rho: it enters neither the
    # flow nor the stationary market, so each (eta, c_lo) flow is one flow.
    pairs = _hold_to_scipy(monkeypatch)
    for eta, c_lo in itertools.product((0.5, 1.0, 2.0), (0.0, 0.1)):
        p = _params(eta=eta, c_lo=c_lo, n_max=256)
        for trigger in range(1, 7):
            pol = Policy.trigger_policy(trigger, p)
            for mu0 in (p.pi, PrecisionMeasure.point_mass(5, p.n_max)):
                integrate(mu0, pol, p, t_end=50.0 / eta)
    assert len(pairs) == 72
    for ours, ref in pairs:
        _assert_same_solution(ours, ref)


@pytest.mark.parametrize("n_max", [16, 64])
def test_rk45_port_matches_scipy_on_small_markets(monkeypatch, n_max):
    # Searchers at c_lo > 0 past the trigger, observation grids finer and
    # coarser than the steps, and one flow that loses mass to the tail.
    pairs = _hold_to_scipy(monkeypatch)
    for eta, c_lo, trigger in itertools.product((0.5, 2.0), (0.1, 0.3), (1, 2, 5)):
        p = _params(eta=eta, c_lo=c_lo, n_max=n_max)
        pol = Policy.trigger_policy(trigger, p)
        for mu0, dt_out in ((p.pi, 0.05), (PrecisionMeasure.point_mass(3, n_max), 7.0)):
            integrate(mu0, pol, p, t_end=20.0, dt_out=dt_out)
    p = _params(eta=0.05, c_lo=0.5, n_max=n_max)
    integrate(p.pi, Policy.constant(1.0, p), p, t_end=60.0)
    assert len(pairs) == 25
    for ours, ref in pairs:
        _assert_same_solution(ours, ref)


def _nan_after(calls: int, fun):
    """``fun``, until it has been called ``calls`` times; NaN everywhere after."""
    count = itertools.count(1)

    def wrapped(*args):
        out = fun(*args)
        return out if next(count) <= calls else np.full_like(out, np.nan)

    return wrapped


@pytest.mark.parametrize("calls", [1, 2, 3, 20, 61])
def test_rk45_port_fails_as_scipy_does_on_a_nan_right_hand_side(calls):
    # Every step from the first NaN on is rejected until the step is too small.
    y0 = np.array([1.0, 0.5, 0.0])
    t_eval = np.linspace(0.0, 5.0, 11)
    kwargs = {"t_eval": t_eval, "atol": ODE_ATOL, "rtol": ODE_RTOL}
    ours = dynamics.solve_ivp(_nan_after(calls, lambda t, y: -y), (0.0, 5.0), y0, **kwargs)
    ref = scipy_solve_ivp(_nan_after(calls, lambda t, y: -y), (0.0, 5.0), y0, method="RK45",
                          **kwargs)
    assert not ours.success and not ref.success
    assert ours.message == ref.message
    assert ours.nfev == ref.nfev
    assert ours.t.tobytes() == np.asarray(ref.t, dtype=float).tobytes()
    assert ours.nfev == 2 + 6 * (ours.accepted_steps + ours.rejected_steps)


def test_rk45_port_fails_on_a_nan_first_derivative():
    # scipy never returns here: its first step is NaN, and NaN < min_step is never true.
    sol = dynamics.solve_ivp(lambda t, y: np.full_like(y, np.nan), (0.0, 1.0), np.ones(2),
                             t_eval=np.array([0.0, 1.0]), atol=ODE_ATOL, rtol=ODE_RTOL)
    assert not sol.success and sol.nfev == 2 and sol.accepted_steps == sol.rejected_steps == 0
    assert sol.t.size == 0 and sol.y.shape == (2, 0)


def test_integrate_raises_on_an_overflowing_start():
    # Weights near the float maximum overflow the first drift evaluation to NaN.
    p = _params(n_max=16)
    w = np.zeros(p.n_max + 1)
    w[1:3] = 1e300
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="integration failed"):
        integrate(PrecisionMeasure(w), Policy.trigger_policy(3, p), p, t_end=1.0)


def test_integrate_raises_when_the_flow_turns_nan(monkeypatch):
    calls = itertools.count(1)

    def residual(weights, policy, params):
        res, overflow = balance_residual(weights, policy, params)
        return (res if next(calls) <= 40 else np.full_like(res, np.nan)), overflow

    monkeypatch.setattr(dynamics, "balance_residual", residual)
    p = _params(n_max=16)
    with pytest.raises(SolverError, match="measure-flow integration failed: Required step size"):
        integrate(p.pi, Policy.trigger_policy(3, p), p, t_end=5.0)


def test_trajectory_reports_the_integrator_work(monkeypatch):
    pairs = _hold_to_scipy(monkeypatch)
    p = _params(n_max=16)
    traj = integrate(p.pi, Policy.trigger_policy(3, p), p, t_end=5.0)
    ((ours, ref),) = pairs
    assert traj.rhs_evals == ours.nfev == ref.nfev
    assert traj.accepted_steps == ours.accepted_steps > 0
    assert traj.rejected_steps == ours.rejected_steps >= 0
    assert traj.rhs_evals == 2 + 6 * (traj.accepted_steps + traj.rejected_steps)


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
