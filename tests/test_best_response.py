"""Value iteration: contraction, shape of optima, trigger extraction, bounds."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from percolate import (
    CostSpec,
    Policy,
    SolverError,
    correspondence,
    exit_utility,
    find_equilibria,
    load_params,
    minimal_search_test,
    solve_stationary,
    solve_value,
    trigger_bounds,
)
from percolate.best_response import (
    VALUE_TOL,
    _fixed_terms,
    _tail_values,
    bellman_operator,
    trigger_interval,
)
from conftest import make_scenario
from oracles import exact_trigger_bound, running_max_efforts


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


def test_values_increase_when_searching_pays_past_the_grid():
    # Search pays far beyond n_max = 25, so every jump from the top of the
    # grid leaves it.  Closed by the bare stop-searching continuation, the
    # value fell from precision 24 to 25 by 1.5e-4.
    p = _params(n_max=25, rho=0.125, r=0.125, c_hi=2.0, pi={"0": 0.5, "1": 0.5},
                cost={"type": "linear", "kappa": 0.005859375})
    st = solve_stationary(Policy.trigger_policy(26, p), p)
    br = solve_value(st, p)
    assert br.trigger == p.n_max + 1
    assert np.all(np.diff(br.value.values) >= 0.0)


def test_bellman_operator_preserves_monotonicity_and_order():
    p, st, _ = _solved(trigger=4)
    rng = np.random.default_rng(3)
    v = np.sort(rng.uniform(-1.0, 0.0, p.n_max + 1))
    fixed = _fixed_terms(st, p)
    tv, _ = bellman_operator(v, fixed)
    assert np.all(np.diff(tv) >= -1e-12)
    w = v + rng.uniform(0.0, 0.5)
    tw, _ = bellman_operator(w, fixed)
    assert np.all(tw >= tv - 1e-12)


@hst.composite
def value_markets(draw):
    """A small market with linear or tabulated cost, a subsidy, public signals and a trigger."""
    n_max = draw(hst.integers(2, 24))
    support = draw(hst.lists(hst.integers(1, min(4, n_max)), min_size=1, max_size=4, unique=True))
    if draw(hst.booleans()):
        support.append(0)
    raw = draw(hst.lists(hst.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    pi = {str(k): w / sum(raw) for k, w in zip(support, raw)}
    c_lo = draw(hst.sampled_from([0.0, 0.1, 0.3]))
    c_hi = c_lo + draw(hst.floats(0.05, 1.5))
    slopes = sorted(draw(hst.lists(hst.floats(0.01, 0.3), min_size=2, max_size=4)))
    if draw(hst.booleans()):
        cost = {"type": "linear", "kappa": slopes[0]}
    else:
        # Convex knots on [0, c_hi]: the interior ones add candidate efforts.
        knots = np.linspace(0.0, c_hi, len(slopes) + 1)
        heights = np.concatenate([[0.0], np.cumsum(np.diff(knots) * slopes)])
        points = [[float(c), float(k)] for c, k in zip(knots, heights)]
        cost = {"type": "tabulated", "points": points}
    params = load_params(make_scenario(
        n_max=n_max, pi=pi, c_lo=c_lo, c_hi=c_hi, cost=cost,
        eta=draw(hst.floats(0.05, 3.0)), eta_prime=draw(hst.floats(0.2, 2.0)),
        r=draw(hst.floats(0.01, 1.0)), public_signals=draw(hst.integers(0, 3)),
        subsidy=slopes[0] * draw(hst.sampled_from([0.0, 0.5, 0.99])),
    ))
    return params, draw(hst.integers(0, n_max + 1)), draw(hst.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(value_markets())
def test_fixed_terms_built_once_change_no_bits(case):
    params, trigger, seed = case
    try:
        state = solve_stationary(Policy.trigger_policy(trigger, params), params)
    except SolverError:
        return
    n = params.n_max + 1
    start = _tail_values(params, exit_utility(params, np.arange(n)))
    # Fixed terms built once are reused across calls, the padded-values
    # buffer included; they give the bits of terms built afresh for each call.
    fixed = _fixed_terms(state, params)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        v = start + rng.normal(size=n)
        once = bellman_operator(v, fixed)
        each = bellman_operator(v, _fixed_terms(state, params))
        assert [a.tobytes() for a in once] == [a.tobytes() for a in each]

    # solve_value against value iteration with the fixed terms built afresh.
    c_bar = float((state.policy.efforts * state.mu.weights).sum())
    q = params.c_hi * c_bar / (params.c_hi * c_bar + params.r + params.eta_prime)
    stop = VALUE_TOL * (1.0 - q) / q if q > 0.0 else VALUE_TOL
    values = start
    deltas = []
    for _ in range(100_000):
        new = bellman_operator(values, _fixed_terms(state, params))[0]
        deltas.append(float(np.max(np.abs(new - values))).hex())
        values = new
        if float.fromhex(deltas[-1]) <= stop:
            break
    br = solve_value(state, params)
    assert br.value.values.tobytes() == values.tobytes()
    assert [d.hex() for d in br.deltas] == deltas
    assert br.contraction_q.hex() == q.hex()

    # The maximizing efforts are read once, at the converged values, and not
    # on every iteration; they keep the bits of the running maximum.
    if params.effective_cost().kind == "tabulated":
        y = bellman_operator(br.value.values, fixed)[1]
        assert br.policy.efforts.tobytes() == running_max_efforts(fixed.terms, y).tobytes()


def test_tied_candidates_resolve_to_the_larger_effort():
    # K is flat on [0, 0.5] and nobody searches, so efforts 0 and 0.5 reach
    # the same objective exactly at every precision and effort 1 does worse.
    flat = {"type": "tabulated", "points": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.2]]}
    p, st, br = _solved(trigger=0, c_lo=0.0, cost=flat)
    assert st.c_bar == 0.0
    assert np.all(br.policy.efforts == 0.5)
    fixed = _fixed_terms(st, p)
    y = bellman_operator(br.value.values, fixed)[1]
    assert br.policy.efforts.tobytes() == running_max_efforts(fixed.terms, y).tobytes()


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
    lo, hi = trigger_interval(np.array([5.0, 3.0, 1.0, -1.0, -2.0]), 0)
    assert (lo, hi) == (3, 3)
    lo, hi = trigger_interval(np.array([5.0, 3.0, 0.0, -1.0]), 0)
    assert (lo, hi) == (2, 3)
    lo, hi = trigger_interval(np.array([-0.5, -1.0]), 0)
    assert (lo, hi) == (0, 0)
    lo, hi = trigger_interval(np.array([1.0, 0.5]), 0)
    assert lo == 2 and hi == 2


# ---------------------------------------------------------------------------
# Upper bound on profitable search
# ---------------------------------------------------------------------------


def test_trigger_bound_spot_value_and_exact_oracle():
    p = _params()  # rho=0.5, c_hi=1, eta_prime=1, r=0.1, kappa=0.1
    oracle = exact_trigger_bound(Fraction(1, 2), Fraction(1), Fraction(1),
                                 Fraction(1, 10), Fraction(1, 10))
    assert oracle == 30
    assert trigger_bounds(p)[0] == 30


@pytest.mark.parametrize("rho,kappa", [(0.25, 0.07), (0.5, 0.13), (0.6, 0.02)])
def test_trigger_bound_matches_exact_arithmetic(rho, kappa):
    p = _params(rho=rho, cost={"type": "linear", "kappa": kappa}, n_max=512)
    oracle = exact_trigger_bound(Fraction(rho).limit_denominator(10**6),
                                 Fraction(1), Fraction(1), Fraction(1, 10),
                                 Fraction(kappa).limit_denominator(10**6))
    assert trigger_bounds(p)[0] == oracle


def test_optimal_trigger_can_exceed_n_bar_when_discounting_is_fast():
    # r + eta' = 0.11 < 1: n_bar's product scale c_hi eta' (r + eta') = 0.011
    # is far below the quotient scale c_hi eta' / (r + eta') = 0.91 that
    # bounds the switching sequence, so n_bar is no bound on optimal triggers.
    p = _params(eta_prime=0.1, r=0.01, cost={"type": "linear", "kappa": 0.02})
    st = solve_stationary(Policy.constant(p.c_hi, p), p)
    br = solve_value(st, p)
    assert trigger_bounds(p)[0] < br.trigger <= find_equilibria(p).scan_bound


def test_no_search_beyond_the_bound():
    p = _params(c_lo=0.0)
    bound = trigger_bounds(p)[0]
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
    p = _params(c_lo=0.0)
    entry = correspondence(0, p)
    rep = minimal_search_test(entry.best_response, p)
    assert rep.gain == 0.0
    assert math.copysign(1.0, rep.gain) == 1.0  # +0.0: the JSON never prints -0.0
    assert rep.is_equilibrium
    assert entry.state.c_bar == 0.0


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


_TABULATED = {"type": "tabulated", "points": [[0.0, 0.0], [0.4, 0.02], [0.7, 0.08], [1.0, 0.2]]}


def _floor_market_best_response(p):
    """Best response to the everyone-at-c_lo market, the scan's trigger-0 entry."""
    return solve_value(solve_stationary(Policy.trigger_policy(0, p), p), p)


def test_minimal_search_gain_matches_linear_system_oracle():
    # Where minimal search is an equilibrium the best response keeps the floor
    # policy, so the gain is the floor policy's.  The tabulated market takes
    # solve_value's non-linear branch; find_equilibria refuses its cost.
    for over in ({"c_lo": 0.1}, {"c_lo": 0.2, "eta": 0.5}, {"c_lo": 0.1, "cost": _TABULATED},
                 {"c_lo": 0.1, "subsidy": 0.05}):
        p = _params(n_max=48, **over)
        if p.effective_cost().kind == "linear":
            rep = find_equilibria(p).minimal_search
        else:
            rep = minimal_search_test(_floor_market_best_response(p), p)
        _, gain = _policy_value_oracle(p)
        assert rep.is_equilibrium
        assert rep.gain == pytest.approx(gain, abs=1e-10)
    # Off equilibrium the gain is the optimal policy's, not the floor policy's,
    # and both are above the threshold.
    p = _params(n_max=48, c_lo=0.1, cost={"type": "linear", "kappa": 0.01})
    rep = find_equilibria(p).minimal_search
    _, gain = _policy_value_oracle(p)
    assert not rep.is_equilibrium
    assert gain > rep.threshold
    assert rep.gain > rep.threshold


def test_minimal_search_agrees_with_best_response():
    for over in ({"c_lo": 0.1}, {"c_lo": 0.1, "cost": {"type": "linear", "kappa": 0.01}},
                 {"c_lo": 0.2, "eta": 0.5}):
        p = _params(**over)
        br = _floor_market_best_response(p)
        rep = minimal_search_test(br, p)
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


def test_values_past_the_float_range_fail_instead_of_overflowing():
    # r + eta' = 2e-300 against a cost of 1e12 at c_hi.  At c_lo = 0 the
    # searching candidate's objective overflowed to -inf with a RuntimeWarning;
    # at c_lo = c_hi the stop-searching tail did too, and value iteration ran
    # 99,999 NaN iterations (0.9 s) before failing.  The guard reads r + eta'
    # and the cost, not eta, which stays 1 so the stationary solve keeps its mass.
    for c_lo in (0.0, 1e6):
        p = _params(eta=1.0, eta_prime=1e-300, r=1e-300, c_lo=c_lo, c_hi=1e6,
                    cost={"type": "linear", "kappa": 1e6}, n_max=3)
        state = solve_stationary(Policy.trigger_policy(0, p), p)
        with pytest.raises(SolverError, match="leave the float range"):
            solve_value(state, p)
