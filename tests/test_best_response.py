"""Value iteration: contraction, shape of optima, trigger extraction, bounds."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from percolate import (
    CostSpec,
    Policy,
    exit_utility,
    load_params,
    minimal_search_test,
    n_bar,
    solve_stationary,
    solve_value,
)
from percolate.best_response import bellman_operator, trigger_interval
from conftest import make_scenario
from oracles import exact_trigger_bound


def _params(**over):
    return load_params(make_scenario(**over))


def _solved(trigger=3, **over):
    p = _params(**over)
    st = solve_stationary(Policy.trigger_policy(trigger, p), p)
    return p, st, solve_value(st, p)


# ---------------------------------------------------------------------------
# Closed form at the inactive market
# ---------------------------------------------------------------------------


def test_value_against_inactive_market_is_autarky_payoff():
    p, st, br = _solved(trigger=0, c_lo=0.0)
    assert st.c_bar == 0.0
    n = np.arange(p.n_max + 1)
    expected = p.eta_prime * exit_utility(p, n) / (p.r + p.eta_prime)
    np.testing.assert_allclose(br.value.values, expected, atol=1e-12)
    assert br.value.values[1] == pytest.approx(-0.75 / 1.1, abs=1e-12)
    assert br.trigger == 0
    assert np.all(br.policy.efforts == 0.0)


# ---------------------------------------------------------------------------
# Contraction and shape properties
# ---------------------------------------------------------------------------


def test_iteration_contracts_at_the_advertised_rate():
    for trigger, over in ((4, {}), (3, {"eta": 0.5, "c_lo": 0.1}), (6, {"eta": 2.0})):
        p, st, br = _solved(trigger, **over)
        q = br.contraction_q
        assert 0.0 < q < 1.0
        assert q == pytest.approx(p.c_hi * st.c_bar / (p.c_hi * st.c_bar + p.r + p.eta_prime))
        d = np.asarray(br.deltas)
        usable = (d[:-1] >= 1e-12) & (d[1:] >= 1e-15)
        ratios = d[1:][usable] / d[:-1][usable]
        assert np.all(ratios <= q + 1e-12)


def test_value_is_monotone_with_shrinking_gain():
    p, st, br = _solved(trigger=5, c_lo=0.1)
    v = br.value.values
    assert np.all(np.diff(v) >= -1e-12)
    # The premium of staying over the never-gain benchmark (minimum effort,
    # no meetings counted) shrinks with precision but never turns negative.
    n = np.arange(p.n_max + 1)
    k_floor = p.effective_cost().cost(p.c_lo)
    premium = v - (p.eta_prime * exit_utility(p, n) - k_floor) / (p.r + p.eta_prime)
    assert np.all(np.diff(premium) <= 1e-10)
    assert np.all(premium >= -1e-12)


def test_bellman_operator_preserves_monotonicity_and_order():
    p, st, _ = _solved(trigger=4)
    rng = np.random.default_rng(3)
    v = np.sort(rng.uniform(-1.0, 0.0, p.n_max + 1))
    tv, _, _ = bellman_operator(v, st, p)
    assert np.all(np.diff(tv) >= -1e-12)
    w = v + rng.uniform(0.0, 0.5)
    tw, _, _ = bellman_operator(w, st, p)
    assert np.all(tw >= tv - 1e-12)


# ---------------------------------------------------------------------------
# Optimal policy form under linear cost
# ---------------------------------------------------------------------------


def test_optimum_is_bang_bang_and_trigger_shaped():
    for trigger in (1, 3, 6):
        p, st, br = _solved(trigger, c_lo=0.1)
        e = br.policy.efforts
        assert set(np.unique(e)).issubset({p.c_lo, p.c_hi})
        k = br.trigger
        assert k is not None
        assert np.all(e[:k] == p.c_hi) and np.all(e[k:] == p.c_lo)
        lo, hi = br.interval
        assert lo <= k <= hi
        # switching sequence is nonincreasing: one sign change only
        assert np.all(np.diff(br.switching) <= 1e-10)


def test_trigger_interval_semantics():
    lo, hi = trigger_interval(np.array([5.0, 3.0, 1.0, -1.0, -2.0]), 0, 1e-9)
    assert (lo, hi) == (3, 3)
    lo, hi = trigger_interval(np.array([5.0, 3.0, 0.0, -1.0]), 0, 1e-9)
    assert (lo, hi) == (2, 3)
    lo, hi = trigger_interval(np.array([-0.5, -1.0]), 0, 1e-9)
    assert (lo, hi) == (0, 0)
    lo, hi = trigger_interval(np.array([1.0, 0.5]), 0, 1e-9)
    assert lo == 2 and hi == 2


# ---------------------------------------------------------------------------
# Upper bound on profitable search
# ---------------------------------------------------------------------------


def test_trigger_bound_spot_value_and_exact_oracle():
    p = _params()  # rho=0.5, c_hi=1, eta_prime=1, r=0.1, kappa=0.1
    oracle = exact_trigger_bound(Fraction(1, 2), Fraction(1), Fraction(1),
                                 Fraction(1, 10), Fraction(1, 10))
    assert oracle == 30
    assert n_bar(p) == 30


@pytest.mark.parametrize("rho,kappa", [(0.25, 0.07), (0.5, 0.13), (0.6, 0.02)])
def test_trigger_bound_matches_exact_arithmetic(rho, kappa):
    p = _params(rho=rho, cost={"type": "linear", "kappa": kappa}, n_max=512)
    oracle = exact_trigger_bound(Fraction(rho).limit_denominator(10**6),
                                 Fraction(1), Fraction(1), Fraction(1, 10),
                                 Fraction(kappa).limit_denominator(10**6))
    assert n_bar(p) == oracle


def test_no_search_beyond_the_bound():
    p = _params(c_lo=0.0)
    bound = n_bar(p)
    for trigger in (1, 4, 8, 40):
        st = solve_stationary(Policy.trigger_policy(trigger, p), p)
        br = solve_value(st, p)
        assert np.all(br.policy.efforts[bound:] == p.c_lo)
    st = solve_stationary(Policy.constant(p.c_hi, p), p)
    br = solve_value(st, p)
    assert np.all(br.policy.efforts[bound:] == p.c_lo)


# ---------------------------------------------------------------------------
# Minimal-search market
# ---------------------------------------------------------------------------


def test_minimal_search_with_zero_floor_is_equilibrium():
    rep = minimal_search_test(_params(c_lo=0.0))
    assert rep.gain == 0.0
    assert rep.is_equilibrium
    assert rep.c_bar == 0.0


def _policy_value_oracle(p):
    """Value of holding effort at c_lo in the constant-c_lo market, solved as
    a dense linear system rather than by iteration."""
    c0 = p.c_lo
    st = solve_stationary(Policy.constant(c0, p), p)
    w = st.mu.weights
    nmax = p.n_max
    cost0 = p.effective_cost().cost(c0)
    denom = p.r + p.eta_prime + c0 * c0
    u = exit_utility(p, np.arange(2 * nmax + 1))
    tail = (p.eta_prime * u[nmax + 1:] - cost0) / (p.r + p.eta_prime)

    a = np.eye(nmax + 1) * denom
    b = p.eta_prime * u[: nmax + 1] - cost0
    for n in range(nmax + 1):
        for m in range(nmax + 1):
            j = n + m
            if j <= nmax:
                a[n, j] -= c0 * c0 * w[m]
            else:
                b[n] += c0 * c0 * w[m] * tail[j - nmax - 1]
    vals = np.linalg.solve(a, b)
    padded = np.concatenate([vals, tail])
    gain = c0 * float(np.dot(padded[2: nmax + 2] - vals[1], w[1:]))
    return vals, gain


def test_minimal_search_gain_matches_linear_system_oracle():
    for over in ({"c_lo": 0.1}, {"c_lo": 0.1, "cost": {"type": "linear", "kappa": 0.01}},
                 {"c_lo": 0.2, "eta": 0.5}):
        p = _params(n_max=48, **over)
        rep = minimal_search_test(p)
        _, gain = _policy_value_oracle(p)
        assert rep.gain == pytest.approx(gain, abs=1e-10)
        assert rep.is_equilibrium == (rep.gain <= rep.threshold + 1e-9)


def test_minimal_search_agrees_with_best_response():
    for over in ({"c_lo": 0.1}, {"c_lo": 0.1, "cost": {"type": "linear", "kappa": 0.01}},
                 {"c_lo": 0.2, "eta": 0.5}):
        p = _params(**over)
        rep = minimal_search_test(p)
        st = solve_stationary(Policy.constant(p.c_lo, p), p)
        br = solve_value(st, p)
        # minimal search survives deviations exactly when the best response
        # against that market searches at the floor everywhere reachable
        assert rep.is_equilibrium == (br.trigger <= 1)


# ---------------------------------------------------------------------------
# General convex cost: knots suffice
# ---------------------------------------------------------------------------


def test_tabulated_cost_argmax_matches_dense_grid():
    cost = {"type": "tabulated", "points": [[0.0, 0.0], [0.4, 0.02], [0.7, 0.08], [1.0, 0.2]]}
    p = _params(cost=cost, c_lo=0.0)
    st = solve_stationary(Policy.trigger_policy(4, p), p)
    br = solve_value(st, p)
    v = br.value.values
    spec = p.effective_cost()

    n_idx = np.arange(p.n_max + 1)
    u = exit_utility(p, n_idx)
    # Rebuild the jump expectation with the stop-searching tail continuation.
    tail_n = np.arange(p.n_max + 1, 2 * p.n_max + 1)
    tail_vals = (p.eta_prime * exit_utility(p, tail_n) - spec.cost(p.c_lo)) / (p.r + p.eta_prime)
    padded = np.concatenate([v, tail_vals])
    w = st.policy.efforts * st.mu.weights
    c_bar = float(w.sum())
    y = np.array([float(np.dot(padded[n:n + w.size], w)) for n in range(p.n_max + 1)])

    grid = np.linspace(0.0, 1.0, 2001)
    kgrid = np.array([spec.cost(float(c)) for c in grid])
    for n in (0, 1, 2, 5, 9, 30):
        objective = (p.eta_prime * u[n] - kgrid + grid * y[n]) / (grid * c_bar + p.r + p.eta_prime)
        chosen = br.policy.efforts[n]
        obj_chosen = (p.eta_prime * u[n] - spec.cost(float(chosen)) + chosen * y[n]) / (
            chosen * c_bar + p.r + p.eta_prime
        )
        assert obj_chosen >= objective.max() - 1e-10
