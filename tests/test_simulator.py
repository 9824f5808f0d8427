"""Finite-population cross-checks of the mean-field solver."""

from __future__ import annotations

import numpy as np
import pytest

from percolate import (
    Policy,
    ValidationError,
    cross_section_params,
    exit_utility,
    load_params,
    solve_stationary,
)
from percolate.simulator import SimConfig, estimate_value, run
from conftest import make_scenario


def _params(**over):
    return load_params(make_scenario(**over))


@pytest.fixture(scope="module")
def trigger3_run():
    p = _params()
    policy = Policy.trigger_policy(3, p)
    state = solve_stationary(policy, p)
    cfg = SimConfig(population=20_000, horizon=40.0, seed=11)
    out = run(policy, p, cfg)
    return p, policy, state, out


# ---------------------------------------------------------------------------
# Reproducibility and accounting
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_and_seeds_matter():
    p = _params()
    policy = Policy.trigger_policy(2, p)
    cfg = SimConfig(population=2_000, horizon=10.0, seed=7)
    a = run(policy, p, cfg)
    b = run(policy, p, cfg)
    np.testing.assert_array_equal(a.histograms, b.histograms)
    assert (a.n_events, a.n_matches, a.n_exits, a.n_resets) == (
        b.n_events,
        b.n_matches,
        b.n_exits,
        b.n_resets,
    )
    np.testing.assert_array_equal(a.final_means, b.final_means)
    c = run(policy, p, SimConfig(population=2_000, horizon=10.0, seed=8))
    assert not np.array_equal(a.histograms[-1], c.histograms[-1])


def test_population_is_conserved_in_every_snapshot(trigger3_run):
    _, _, _, out = trigger3_run
    assert np.all(out.histograms.sum(axis=1) == 20_000)
    assert out.histograms[:, -1].sum() == 0  # trigger policy keeps the grid


def test_event_counters_are_consistent(trigger3_run):
    _, _, _, out = trigger3_run
    assert out.n_events == out.n_matches + out.n_resets + out.n_exits
    assert out.n_matches > 0 and out.n_exits > 0 and out.n_resets > 0


# ---------------------------------------------------------------------------
# Idle policy: pure entry-exit churn
# ---------------------------------------------------------------------------


def test_idle_policy_never_matches_and_tracks_entry_measure():
    p = _params(pi={"1": 0.5, "4": 0.5})
    policy = Policy.constant(0.0, p)
    cfg = SimConfig(population=20_000, horizon=12.0, seed=3)
    out = run(policy, p, cfg)
    assert out.n_matches == 0
    freq = out.frequencies()
    for n in (1, 4):
        se = np.sqrt(0.5 * 0.5 / 20_000)
        assert abs(freq[n] - 0.5) < 4 * se
    est = estimate_value(policy, p, SimConfig(seed=5, replications=50_000), entry_precision=1)
    exact = p.eta_prime * exit_utility(p, 1) / (p.r + p.eta_prime)
    assert abs(est.mean - exact) < 1.6 * est.half_width  # 3 sigma


# ---------------------------------------------------------------------------
# Stationary histogram and conditional moments
# ---------------------------------------------------------------------------


def test_histogram_matches_stationary_weights(trigger3_run):
    p, _, state, out = trigger3_run
    freq = out.frequencies()
    mu = state.mu.weights
    heavy = mu >= 1e-3
    bound = 4.0 * np.sqrt(mu[heavy] / 20_000)
    assert np.all(np.abs(freq[heavy] - mu[heavy]) < bound)


def test_conditional_moments_match_projection(trigger3_run):
    p, _, state, out = trigger3_run
    y = out.config.y_realization
    mu = state.mu.weights
    for n in np.flatnonzero(mu * 20_000 >= 800):
        sel = out.final_precisions == n
        m = int(sel.sum())
        assert m > 200
        sample = out.final_means[sel]
        mean_th, var_th = cross_section_params(int(n), y, p.rho)
        assert abs(sample.mean() - mean_th) < 3.3 * np.sqrt(var_th / m)
        s2 = sample.var(ddof=1)
        assert abs(s2 - var_th) < 3.3 * var_th * np.sqrt(2.0 / (m - 1))


def test_snapshot_moment_sums_match_final_state(trigger3_run):
    p, _, _, out = trigger3_run
    counts, means, variances = out.conditional_moments(at=-1)
    assert np.all(counts == out.histograms[-1])
    for n in range(p.n_max + 1):
        sel = out.final_means[out.final_precisions == n]
        if sel.size == 0:
            assert np.isnan(means[n])
        else:
            assert means[n] == pytest.approx(sel.mean(), abs=1e-12)
        if sel.size > 1:
            assert variances[n] == pytest.approx(sel.var(ddof=1), rel=1e-9, abs=1e-13)


# ---------------------------------------------------------------------------
# Grid overflow accounting
# ---------------------------------------------------------------------------


def test_precision_cap_is_counted_and_binned():
    p = _params(eta=0.2, n_max=8)
    policy = Policy.constant(1.0, p)
    out = run(policy, p, SimConfig(population=2_000, horizon=25.0, seed=13))
    assert out.n_precision_caps > 0
    assert out.histograms[-1, -1] > 0
    assert np.all(out.histograms.sum(axis=1) == 2_000)


# ---------------------------------------------------------------------------
# Value estimate against an exact policy-value computation
# ---------------------------------------------------------------------------


def test_estimate_value_matches_linear_system(trigger3_run):
    p, policy, state, _ = trigger3_run
    w = (state.policy.efforts * state.mu.weights).astype(float)
    c_bar = float(w.sum())
    denom_stop = p.r + p.eta_prime

    # Precisions >= 3 never search under trigger 3: closed-form continuations.
    def stopped(n: int) -> float:
        return p.eta_prime * float(exit_utility(p, n)) / denom_stop

    # Searching bins 1..2 form a linear system over jump targets.
    kappa = p.cost.kappa
    idx = [1, 2]
    a = np.zeros((2, 2))
    b = np.zeros(2)
    for i, n in enumerate(idx):
        a[i, i] = c_bar + denom_stop
        b[i] = p.eta_prime * float(exit_utility(p, n)) - kappa
        for m in range(1, p.n_max + 1):
            tgt = n + m
            if tgt in idx:
                a[i, idx.index(tgt)] -= w[m]
            else:
                b[i] += w[m] * stopped(tgt)
    v = np.linalg.solve(a, b)

    est = estimate_value(
        policy, p, SimConfig(seed=29, replications=120_000), entry_precision=1, state=state
    )
    assert abs(est.mean - v[0]) < 1.6 * est.half_width  # 3 sigma
    assert est.replications == 120_000


@pytest.mark.parametrize("entry, replications", [(-1, 10), (17, 10), (1, 0)])
def test_estimate_value_rejects_bad_entry_and_replications(entry, replications):
    p = _params(n_max=16)
    with pytest.raises(ValidationError):
        estimate_value(Policy.trigger_policy(1, p), p, SimConfig(replications=replications),
                       entry_precision=entry)
