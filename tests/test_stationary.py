"""Stationary measure: recursion, root uniqueness, orderings, generating function."""

from __future__ import annotations

import re
import tracemalloc
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from percolate import stationary

from percolate import (
    MarketState,
    Policy,
    PrecisionMeasure,
    SolverError,
    ValidationError,
    find_equilibria,
    fosd_compare,
    integrate,
    load_params,
    solve_stationary,
)
from percolate.stationary import (
    average_effort,
    balance_residual,
    candidate_measure,
    effort_derivative,
    is_stable,
)
from conftest import POOL, make_scenario
from oracles import (
    FLOW_GATE,
    candidate_measure_loop,
    mgf_check,
    stationary_flow,
    three_bin_derivatives,
    three_bin_market,
    z_sequence,
)

# Frozen values from the independent three-bin oracle (eta = 1, entries
# (0.2, 0.6, 0.2) on precisions {1,2,3}, efforts (1, 1, 0, ...)).
ORACLE_C_BAR = 0.5329672594200555
ORACLE_MU = (0.1304659305480947, 0.40250132887196083, 0.3050254208362501, 0.16200731974369437)
ORACLE_D_CBAR_DC1 = 0.0731142968390941
ORACLE_D_NU2_DC1 = -0.005769974220637408


def _params(**over):
    return load_params(make_scenario(**over))


def average_effort_monotonicity_check(policies: "list[Policy]", params) -> list[float]:
    """Average efforts of pointwise-ordered policies, asserted nondecreasing.

    Policies must be sorted so each dominates its predecessor pointwise; the
    induced average efforts are then nondecreasing, and strictly increasing
    when the effort at precision 1 strictly rises while entry puts mass there.
    """
    for prev, cur in zip(policies, policies[1:]):
        if np.any(cur.efforts < prev.efforts - 1e-12):
            raise ValidationError("policies are not pointwise ordered")
    c_bars = [solve_stationary(p, params).c_bar for p in policies]
    for lo, hi in zip(c_bars, c_bars[1:]):
        if hi < lo - 1e-12:
            raise SolverError(f"average effort not monotone: {hi:.12g} < {lo:.12g}")
    return c_bars


def _three_bin_params(**over):
    return _params(pi={"1": 0.2, "2": 0.6, "3": 0.2}, c_hi=1.5, **over)


# ---------------------------------------------------------------------------
# Agreement with the closed-form finite system
# ---------------------------------------------------------------------------


def test_three_bin_market_matches_oracle():
    p = _three_bin_params()
    state = solve_stationary(Policy.from_list([1.0, 1.0, 0.0], p), p)
    assert state.c_bar == pytest.approx(ORACLE_C_BAR, abs=1e-12)
    np.testing.assert_allclose(state.mu.weights[1:5], ORACLE_MU, atol=1e-12)
    assert state.mu.weights[0] == 0.0
    assert abs(state.mu.weights[5:].sum()) == 0.0
    assert state.mu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_three_bin_oracle_self_check():
    sol = three_bin_market(1.0, 1.0)
    assert sum(sol["mu"]) == pytest.approx(1.0, abs=1e-12)
    assert sol["c_bar"] == pytest.approx(sol["nu"][0] + sol["nu"][1], abs=1e-12)


def test_effort_mass_above_two_decreases_in_low_precision_effort():
    # More search by precision-1 agents raises average effort yet lowers the
    # effort-weighted mass above precision 1: the orderings genuinely diverge.
    d_cbar_oracle, d_nu2_oracle = three_bin_derivatives()
    assert d_cbar_oracle == pytest.approx(ORACLE_D_CBAR_DC1, abs=1e-9)
    assert d_nu2_oracle == pytest.approx(ORACLE_D_NU2_DC1, abs=1e-9)

    p = _three_bin_params()
    h = 1e-6

    def solved(c1):
        st = solve_stationary(Policy.from_list([c1, 1.0, 0.0], p), p)
        return st.c_bar, float(st.nu().weights[2])

    cb_up, nu2_up = solved(1.0 + h)
    cb_dn, nu2_dn = solved(1.0 - h)
    d_cbar = (cb_up - cb_dn) / (2 * h)
    d_nu2 = (nu2_up - nu2_dn) / (2 * h)
    assert d_cbar == pytest.approx(ORACLE_D_CBAR_DC1, abs=1e-6)
    assert d_nu2 == pytest.approx(ORACLE_D_NU2_DC1, abs=1e-6)
    assert d_cbar > 0
    assert d_nu2 < 0


def test_reduced_effort_dominates_at_high_tails_only():
    p = _three_bin_params()
    eps = 1e-3
    full = solve_stationary(Policy.from_list([1.0, 1.0, 0.0], p), p)
    reduced = solve_stationary(Policy.from_list([1.0 - eps, 1.0, 0.0], p), p)
    rep = fosd_compare(reduced.nu(), full.nu())
    # Tail sums of the effort-weighted measure: the reduced policy wins at
    # every index >= 2 but loses at 0 and 1 (those equal average effort,
    # which moves with the policy), so neither side dominates outright.
    t_red, t_full = reduced.nu().tail_sums(), full.nu().tail_sums()
    assert np.all(t_red[2:] >= t_full[2:] - 1e-15)
    assert t_red[2] > t_full[2]
    assert t_red[1] < t_full[1]
    assert not rep.a_dominates and not rep.b_dominates
    assert rep.first_violation_a in (0, 1)


# ---------------------------------------------------------------------------
# Balance residual, mass, uniqueness on randomized scenarios
# ---------------------------------------------------------------------------


def _random_scenarios(seed: int, count: int, with_zero_entry: bool):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        if with_zero_entry:
            eta = float(rng.uniform(0.8, 2.0))
            p0 = float(rng.uniform(0.05, 0.5))
            rest = rng.uniform(0.2, 1.0, size=3)
            rest = (1.0 - p0) * rest / rest.sum()
            pi = {"0": p0, "1": float(rest[0]), "2": float(rest[1]), "4": float(rest[2])}
            trigger = int(rng.integers(1, 7))
        else:
            eta = float(rng.uniform(0.3, 2.5))
            raw = rng.uniform(0.2, 1.0, size=3)
            raw = raw / raw.sum()
            pi = {"1": float(raw[0]), "2": float(raw[1]), "5": float(raw[2])}
            trigger = int(rng.integers(0, 9))
        c_lo = float(rng.choice([0.0, 0.05, 0.2]))
        c_hi = float(rng.uniform(max(0.5, c_lo + 0.1), 1.5))
        yield _params(eta=eta, c_lo=c_lo, c_hi=c_hi, pi=pi, n_max=96), trigger


@pytest.mark.parametrize("with_zero_entry", [False, True])
def test_random_scenarios_residual_mass_uniqueness(with_zero_entry):
    count = 0
    for p, trigger in _random_scenarios(20240 + with_zero_entry, 10, with_zero_entry):
        pol = Policy.trigger_policy(trigger, p)
        state = solve_stationary(pol, p)
        res, overflow = balance_residual(state.mu.weights, pol, p)
        assert float(np.max(np.abs(res))) < 1e-10
        if p.eta >= pol.tail_effort() * p.c_hi - 1e-12:
            assert state.mu.total_mass() == pytest.approx(1.0, abs=1e-8)
        count += 1
    assert count == 10


def test_gap_function_is_strictly_increasing():
    # Uniqueness of the average-effort root: the self-consistency gap
    # x - nu(x) is strictly increasing in the trial effort.
    p = _params(pi={"1": 0.4, "2": 0.6}, c_lo=0.1)
    pol = Policy.trigger_policy(4, p)
    xs = np.linspace(0.0, 1.5, 40)
    gaps = [x - average_effort(candidate_measure(x, pol, p), pol) for x in xs]
    assert np.all(np.diff(gaps) > 0)


def test_solution_satisfies_printed_recursion_without_zero_entry():
    # With no entry mass at precision 0 the extended recursion must coincide
    # with the plain one: mu_k = (eta pi_k + conv_k) / (eta + C_k c_bar).
    p = _params(pi={"1": 0.7, "3": 0.3}, c_lo=0.1)
    pol = Policy.trigger_policy(5, p)
    st = solve_stationary(pol, p)
    nu = st.nu().weights
    mu = st.mu.weights
    assert mu[0] == 0.0
    for k in range(1, p.n_max + 1):
        conv = float(np.dot(nu[1:k], nu[k - 1:0:-1])) if k >= 2 else 0.0
        expected = (p.eta * p.pi.weights[k] + conv) / (p.eta + pol.efforts[k] * st.c_bar)
        assert mu[k] == pytest.approx(expected, abs=1e-13)


def test_zero_entry_bin_balance():
    # With entry mass at precision 0, the bin-0 weight must satisfy its
    # quadratic: C0^2 mu0^2 - (eta + C0 c_bar) mu0 + eta pi0 = 0, small root.
    p = _params(pi={"0": 0.4, "1": 0.6})
    pol = Policy.trigger_policy(3, p)
    st = solve_stationary(pol, p)
    c0 = pol.efforts[0]
    mu0 = st.mu.weights[0]
    quad = c0 * c0 * mu0 * mu0 - (p.eta + c0 * st.c_bar) * mu0 + p.eta * p.pi.weights[0]
    assert quad == pytest.approx(0.0, abs=1e-12)
    disc = (p.eta + c0 * st.c_bar) ** 2 - 4 * c0 * c0 * p.eta * p.pi.weights[0]
    large_root = ((p.eta + c0 * st.c_bar) + np.sqrt(disc)) / (2 * c0 * c0)
    assert mu0 < large_root


def test_stationary_agrees_with_long_horizon_integration():
    # Dual route: the ODE integrated far forward lands on the solved measure.
    for scen in ({"c_lo": 0.0}, {"c_lo": 0.1, "eta": 0.5}, {"pi": {"0": 0.3, "1": 0.7}}):
        p = _params(**scen)
        pol = Policy.trigger_policy(3, p)
        st = solve_stationary(pol, p)
        traj = integrate(p.pi, pol, p, t_end=120.0 / p.eta)
        assert traj.l1_distance(st.mu) < 1e-8


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c_lo", [0.0, 0.1])
def test_trigger_measures_are_stochastically_ordered(c_lo):
    p = _params(c_lo=c_lo)
    states = {n: solve_stationary(Policy.trigger_policy(n, p), p) for n in range(0, 7)}
    for m in range(0, 6):
        for n in range(m + 1, 7):
            rep = fosd_compare(states[n].mu, states[m].mu)
            assert rep.a_dominates, f"trigger {n} fails to dominate {m} at tail {rep.first_violation_a}"


def test_average_effort_monotone_in_policy():
    p = _params(c_lo=0.05)
    policies = [Policy.trigger_policy(n, p) for n in range(0, 7)]
    c_bars = average_effort_monotonicity_check(policies, p)
    assert all(b >= a - 1e-12 for a, b in zip(c_bars, c_bars[1:]))
    assert c_bars[-1] > c_bars[0]
    with pytest.raises(ValidationError):
        average_effort_monotonicity_check(list(reversed(policies)), p)


def test_fixed_effort_comparative_statics():
    # At a fixed trial average effort: raising C_i raises nu_k for k >= i,
    # raises mu_k for k > i, and lowers mu_k at k = i.
    p = _three_bin_params()
    c_bar = 0.5

    def weights(vals):
        pol = Policy.from_list(vals, p)
        mu = candidate_measure(c_bar, pol, p)
        return mu.weights, mu.weights * pol.efforts

    base_mu, base_nu = weights([0.8, 0.6, 0.3])
    up1_mu, up1_nu = weights([0.9, 0.6, 0.3])
    up2_mu, up2_nu = weights([0.8, 0.7, 0.3])
    assert up1_nu[1] > base_nu[1]
    assert up1_nu[2] > base_nu[2]
    assert up2_nu[2] > base_nu[2]
    assert up1_mu[2] > base_mu[2]
    assert up2_mu[2] < base_mu[2]
    assert up1_mu[1] < base_mu[1]


# ---------------------------------------------------------------------------
# Exact derivatives with respect to the efforts
# ---------------------------------------------------------------------------

# effort_derivative's gate, fixed before its first run: a 5-point central
# difference with this step agrees within DERIVATIVE_TOL * max(1, |difference|).
DERIVATIVE_STEP = 1e-3
DERIVATIVE_TOL = 1e-9


def _assert_derivative_matches_a_difference(scenario, efforts, direction):
    """effort_derivative against a 5-point difference, on c_bar, the mass above 2 and every mu_k."""
    # c_hi widened by 1 so that the stencil's efforts stay admissible; the
    # solve reads c_hi only as the end of its bracket.
    p = load_params(dict(scenario, c_hi=scenario["c_hi"] + 1.0))

    def quantities(t):
        state = solve_stationary(Policy(efforts + t * direction), p)
        nu = state.nu().weights
        return np.concatenate(([nu.sum(), nu[2:].sum()], state.mu.weights))

    h = DERIVATIVE_STEP
    fd = (8 * (quantities(h) - quantities(-h)) - (quantities(2 * h) - quantities(-2 * h))) / (12 * h)
    state = solve_stationary(Policy(efforts), p)
    d_mu = effort_derivative(state, p, direction)
    d_nu = efforts * d_mu + state.mu.weights * direction
    exact = np.concatenate(([d_nu.sum(), d_nu[2:].sum()], d_mu))
    gap = np.abs(exact - fd) / np.maximum(1.0, np.abs(fd))
    assert gap.max() <= DERIVATIVE_TOL, (int(gap.argmax()), float(gap.max()))


@pytest.mark.parametrize("entry", POOL, ids=[f"pool{i}" for i in range(len(POOL))])
def test_effort_derivative_matches_a_difference_on_the_pool(entry):
    p = load_params(entry["scenario"])
    for trigger in (1, 2, 3, 5, 8, 16):
        below = (np.arange(p.n_max + 1) < trigger).astype(float)
        _assert_derivative_matches_a_difference(
            entry["scenario"], Policy.trigger_policy(trigger, p).efforts, below)


@pytest.mark.parametrize("c1", [0.3, 0.5, 1.0])
def test_effort_derivative_matches_a_difference_on_the_two_rung_market(c1):
    # counterexample's market on the README scenario; c1 moves precisions 0 and 1.
    scenario = make_scenario(n_max=256)
    p = load_params(scenario)
    first_rung = np.zeros(p.n_max + 1)
    first_rung[:2] = 1.0
    _assert_derivative_matches_a_difference(
        scenario, Policy.from_list([c1, 1.0, 0.0], p).efforts, first_rung)


def test_effort_derivative_memory_grows_with_the_support():
    # Three precisions search, so the system is 3 x 3 and its columns hold
    # 3 * 4097 floats; a dense Jacobian would take 134 MB.
    p = _params(n_max=4096)
    state = solve_stationary(Policy.from_list([1.0, 1.0, 0.0], p), p)
    first_rung = np.zeros(p.n_max + 1)
    first_rung[:2] = 1.0
    tracemalloc.start()
    try:
        d_mu = effort_derivative(state, p, first_rung)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert np.all(np.isfinite(d_mu))


# ---------------------------------------------------------------------------
# fosd_compare semantics
# ---------------------------------------------------------------------------


def test_fosd_compare_reports():
    hi = PrecisionMeasure(np.array([0.0, 0.2, 0.8]))
    lo = PrecisionMeasure(np.array([0.0, 0.5, 0.5]))
    rep = fosd_compare(hi, lo)
    assert rep.a_dominates and not rep.b_dominates
    assert rep.relation == "a"
    rep2 = fosd_compare(lo, hi)
    assert rep2.b_dominates and rep2.relation == "b"
    tie = fosd_compare(hi, hi)
    assert tie.a_dominates and tie.b_dominates
    x = PrecisionMeasure(np.array([0.0, 0.5, 0.0, 0.5]))
    y = PrecisionMeasure(np.array([0.2, 0.0, 0.8, 0.0]))
    none = fosd_compare(x, y)
    assert not none.a_dominates and not none.b_dominates
    assert none.relation == "crossing"
    assert none.first_violation_a is not None and none.first_violation_b is not None


# ---------------------------------------------------------------------------
# Damping factors and the generating function
# ---------------------------------------------------------------------------


def test_damping_factors_below_one():
    for eta in (0.5, 1.0, 2.0):
        p = _params(eta=eta, c_lo=0.1)
        for n in (2, 4):
            st = solve_stationary(Policy.trigger_policy(n, p), p)
            z = z_sequence(st, p)
            assert np.all(z[1:] < 1.0 - 1e-9)
            assert np.all(z[1:] > 0.0)


def test_generating_function_matches_series():
    xs = [0.1, 0.3, 0.5, 0.7]
    for eta in (0.5, 1.0, 2.0):
        p = _params(eta=eta, c_lo=0.1)
        for n in (1, 3, 6):
            st = solve_stationary(Policy.trigger_policy(n, p), p)
            for pt in mgf_check(st, p, xs):
                assert pt.gap <= 1e-9, f"eta={eta} N={n} x={pt.x}: gap {pt.gap}"


def test_generating_function_requires_flat_positive_tail():
    p = _params(c_lo=0.0)
    st = solve_stationary(Policy.trigger_policy(3, p), p)
    with pytest.raises(ValidationError):
        mgf_check(st, p, [0.5])
    p0 = _params(pi={"0": 0.5, "1": 0.5}, c_lo=0.1)
    st0 = solve_stationary(Policy.trigger_policy(3, p0), p0)
    with pytest.raises(ValidationError):
        mgf_check(st0, p0, [0.5])


# ---------------------------------------------------------------------------
# Stability diagnostics
# ---------------------------------------------------------------------------


def test_unstable_regime_routes_mass_to_the_tail():
    # Below the escape threshold (eta < tail effort * c_hi) the truncated
    # system still conserves total mass exactly -- summing the balance
    # equations gives grid mass + overflow/eta = 1 -- but most of it sits in
    # the tail compartment rather than on the grid.  A long measure flow
    # settles on the same split.
    p = _params(eta=0.05, c_lo=0.5, n_max=128)
    pol = Policy.constant(1.0, p)
    assert not is_stable(pol, p)
    state = solve_stationary(pol, p)
    assert state.c_bar > 0
    assert state.mu.total_mass() == pytest.approx(1.0, abs=1e-10)
    assert state.mu.tail_mass > 0.5
    flow = integrate(p.pi, pol, p, t_end=200.0).final()
    assert flow.grid_mass() == pytest.approx(state.mu.grid_mass(), abs=1e-6)
    assert flow.tail_mass == pytest.approx(state.mu.tail_mass, abs=1e-6)


@pytest.mark.parametrize("eta", [1e4, 1e6, 1e8, 1e10])
def test_acceptance_bounds_scale_with_the_market(eta):
    # The gap and the balance terms grow with c_bar and eta.  Absolute bounds
    # rejected these solves on rounding alone from eta = 1e6 on.
    p = _params(eta=eta, c_lo=1e6, c_hi=1e6, pi={"1": 1.0}, n_max=13,
                cost={"type": "linear", "kappa": 1e6})
    pol = Policy.constant(1e6, p)
    state = solve_stationary(pol, p)
    assert abs(state.c_bar - average_effort(state.mu, pol)) <= 1e-14 * state.c_bar
    res, _ = balance_residual(state.mu.weights, pol, p)
    assert float(np.max(np.abs(res))) <= 1e-14 * eta
    assert state.mu.total_mass() == pytest.approx(1.0, abs=1e-14)


def test_market_where_only_precision_zero_searches_solves_to_the_entry_law():
    # Only precision 0 searches, and its searchers meet only each other and
    # stay there, so mu = pi with c_bar = C_0 pi_0 = 0.98 is stationary: the
    # lowest shift -C_0 pi_0 is the root.  The flow from pi stays there.
    p = _params(eta=0.02, pi={"0": 0.98, "1": 0.02}, c_lo=0.0, c_hi=1.0, n_max=32)
    pol = Policy.trigger_policy(1, p)
    state = solve_stationary(pol, p)
    assert state.c_bar == pytest.approx(0.98, rel=1e-15)
    np.testing.assert_allclose(state.mu.weights, p.pi.weights, rtol=1e-15, atol=0.0)
    assert integrate(p.pi, pol, p, t_end=300.0).l1_distance(state.mu) < 1e-12


def test_diverging_trial_raises_without_overflow_warning():
    # Just above the shift -eta / C_1 the denominators of precisions 1..2 are
    # about 1e-9 eta, and the candidate weights grow geometrically; the
    # recursion stops at the first non-finite weight.
    p = _params(pi={"0": 0.5, "1": 0.5}, c_lo=0.1)
    pol = Policy.trigger_policy(3, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match="diverges"):
            candidate_measure(-p.eta / pol.efforts[1] * (1.0 - 1e-9), pol, p)


# The market whose stationary state sits where the zero-bin quadratic in the
# average effort takes its larger root: the flow from pi settles at c_bar
# 0.8284008 with mu_0 0.4938581 under triggers 1-3.
LARGER_ROOT_MARKET = {
    "eta": 1.0505903325588828, "c_lo": 0.1, "c_hi": 1.5749192923444422,
    "pi": {"0": 0.5313294251958152, "3": 0.46867057480418484}, "n_max": 64,
}


def assert_solve_matches_the_flow(policy, params) -> MarketState:
    """The stationary solve against the measure flow's resting point, within FLOW_GATE."""
    state = solve_stationary(policy, params)
    weights, tail = stationary_flow(policy, params)
    gap = max(float(np.max(np.abs(state.mu.weights - weights))), abs(state.mu.tail_mass - tail))
    assert gap <= FLOW_GATE, gap
    return state


@pytest.mark.parametrize("trigger", [1, 2, 3, 4])
def test_larger_root_market_solves_to_the_flows_state(trigger):
    p = _params(**LARGER_ROOT_MARKET)
    state = assert_solve_matches_the_flow(Policy.trigger_policy(trigger, p), p)
    c0 = state.policy.efforts[0]
    mu0 = state.mu.weights[0]
    b = p.eta + c0 * state.c_bar
    if trigger <= 3:
        # mu_0 is the larger root of C_0^2 m^2 - b m + eta pi_0 = 0.
        assert 2 * c0 * c0 * mu0 > b
        assert state.c_bar == pytest.approx(0.8284008, abs=1e-7)


def test_market_where_only_precision_zero_searches_matches_the_flow():
    p = _params(eta=0.02, pi={"0": 0.98, "1": 0.02}, c_lo=0.0, c_hi=1.0, n_max=32)
    assert_solve_matches_the_flow(Policy.trigger_policy(1, p), p)


def test_scan_of_the_larger_root_market_returns():
    report = find_equilibria(_params(**LARGER_ROOT_MARKET))
    assert report.triggers() == [0]


def _kernel_outcome(run):
    """Weights, or the failure kind and the precision it names."""
    try:
        return run()
    except SolverError as exc:
        return re.search(r"^(.*) at precision (\d+)", str(exc)).groups()


def test_kernel_fails_where_the_recursion_fails_and_agrees_elsewhere():
    # Entry mass at precision 0 lets the shift reach -C_0 pi_0 < -eta / C_k,
    # so trials near that lower end make runs of effort C_k degenerate, and
    # trials just above -eta / C_k make them diverge.
    p = _params(n_max=64, pi={"0": 0.9, "1": 0.07, "2": 0.03}, eta=0.2, c_hi=2.5)
    policies = (
        Policy.trigger_policy(5, p),
        Policy.from_list([1.0] * 8 + [2.5] * 12 + [0.0] * 10 + [1.7], p),
        Policy(np.repeat([2.5, 2.5, 1.0, 0.0, 1.7], [1, 8, 20, 10, 26])),
    )
    kinds = set()
    for pol in policies:
        lo = 0.0 - pol.efforts[0] * p.pi.weights[0]
        trials = [lo + (p.c_hi - lo) * np.append(0.0, np.geomspace(1e-14, 1.0, 60))]
        for c in np.unique(pol.efforts[pol.efforts > 0.0]):
            trials.append(-p.eta / c * (1.0 - np.geomspace(1e-14, 1.0, 20)))
        for x in np.concatenate(trials):
            expected = _kernel_outcome(
                lambda: candidate_measure_loop(x, pol.efforts, p.pi.weights, p.eta))
            got = _kernel_outcome(lambda: candidate_measure(x, pol, p).weights)
            if isinstance(expected, tuple):
                assert got == expected
                kinds.add(expected[0])
            else:
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
                kinds.add("finite")
    assert kinds == {"finite", "candidate measure diverges", "degenerate balance denominator"}


@pytest.mark.parametrize("c_lo", [1e-6, 1e-9, 1e-200, 5e-324])
def test_small_zero_bin_effort_keeps_the_entry_mass(c_lo):
    # The positive root (sqrt(disc) - b) / (2 C_0^2) cancels to noise as
    # C_0 -> 0 (and to 0/0 once C_0^2 underflows); the conjugate form does not.
    p = _params(n_max=32, pi={"0": 0.5, "1": 0.5}, c_lo=c_lo)
    st = solve_stationary(Policy.trigger_policy(0, p), p)
    assert st.mu.weights[0] == pytest.approx(0.5, rel=1e-6)
    assert st.c_bar == pytest.approx(c_lo, rel=1e-6, abs=stationary.ROOT_TOL)


def test_readme_market_solves_to_machine_precision():
    p = _params(n_max=256)
    st = solve_stationary(Policy.trigger_policy(3, p), p)
    assert abs(st.mu.total_mass() - 1.0) <= 1e-14
    assert abs(st.c_bar - average_effort(st.mu, st.policy)) <= 1e-14


@pytest.mark.parametrize("trigger", [stationary._CLOSED_FORM_MAX_TRIGGER + 1, 4096])
def test_large_triggers_keep_the_kernel_gap(memo, monkeypatch, trigger):
    # The closed form's table costs O(n^3) time and n^2 floats (about 134 MB
    # at trigger 4096), more than the kernel trials it saves past the cutoff.
    # There the solve runs the kernel, in O(n_max) memory.
    monkeypatch.setattr(stationary, "_run_table", None)
    p = _params(n_max=4096, pi={"1": 1.0}, c_lo=0.0)
    pol = Policy.trigger_policy(trigger, p)
    tracemalloc.start()
    try:
        assert stationary._closed_form_mass(pol, p) is None
        st = solve_stationary(pol, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert abs(st.mu.total_mass() - 1.0) <= stationary.MASS_TOL


def test_underflowed_run_sums_keep_the_kernel_gap(memo):
    # pi' = 7e-4 x, so S(128, m) = (7e-4)^(m+1) is subnormal from m = 97 and
    # zero from m = 102, while near the root the Catalan terms barely decay:
    # a closed-form sum cut there misses most of the run's mass and the solve
    # fails.  The kernel solves this market; the pin is its root.
    p = _params(
        n_max=128, pi={"0": 0.999287601252999, "1": 0.0007123987470009873},
        c_lo=0.0, c_hi=0.6396901468937625, eta=0.021948121044757272,
    )
    pol = Policy.trigger_policy(128, p)
    assert stationary._closed_form_mass(pol, p) is None
    assert solve_stationary(pol, p).c_bar.hex() == "0x1.0c4487d7a4d09p-2"


def test_zero_effort_first_run_counts_the_searchers_after_it(memo):
    # Efforts 0 at precision 1 and 1 at precision 2 = n_max: mu_1 = 1/2 and
    # mu_2 = (1/2) / (1 + c_bar) = c_bar, so c_bar = (sqrt(3) - 1) / 2.  The
    # closed form once read these efforts as a trigger market with c = 0 and
    # counted no effort mass at all, so the solve failed.
    p = _params(n_max=2, pi={"1": 0.5, "2": 0.5})
    state = solve_stationary(Policy.from_list([0.0, 1.0], p), p)
    assert state.c_bar == pytest.approx((3 ** 0.5 - 1) / 2, rel=1e-15)


@pytest.mark.parametrize("pi", [[1.0], {"0": 0.25, "1": 0.75}, {"1": 0.7, "4": 0.3}])
def test_c_lo_positive_trigger_solves_settle_without_the_kernel_gap(memo, gap_evals, pi):
    # The shifted closed form settles in one or two kernel calls where the
    # kernel gap takes about ten.  A wrong closed form would still end at the
    # kernel root, through the fallback, so only the call count shows it.
    p = _params(n_max=256, c_lo=0.1, pi=pi)
    counts = []
    for trigger in range(31):
        before = len(gap_evals)
        solve_stationary(Policy.trigger_policy(trigger, p), p)
        counts.append(len(gap_evals) - before)
    assert max(counts) <= stationary._CORRECTIONS, counts


def test_gap_evals_count_the_kernel_calls(memo, gap_evals):
    # Closed-form trials are not counted, the root's kernel call is: c_lo = 0
    # trigger markets (closed form), c_lo = 0.1 ones (closed form corrected by
    # kernel calls), triggers past the closed form's cutoff and a list policy
    # (kernel gap).
    markets = []
    for entry in POOL[::5]:
        p = load_params(entry["scenario"])
        markets += [(Policy.trigger_policy(n, p), p) for n in (0, 1, 3, 16, 200)]
    p = load_params(POOL[0]["scenario"])
    markets.append((Policy.from_list([1.0, 0.5, 0.2], p), p))
    for policy, p in markets:
        before = len(gap_evals)
        state = solve_stationary(policy, p)
        assert state.gap_evals == len(gap_evals) - before > 0
    assert {p.c_lo for _, p in markets} == {0.0, 0.1}


# ---------------------------------------------------------------------------
# Per-process memo of stationary solves
# ---------------------------------------------------------------------------

# A market no other test solves, so a cold solve here is really cold.
MEMO_MARKET = {"eta": 0.73, "c_lo": 0.1, "n_max": 40}


@pytest.fixture
def memo(monkeypatch):
    """An empty memo private to the test; the shared one is restored afterwards."""
    fresh = OrderedDict()
    monkeypatch.setattr(stationary, "_memo", fresh)
    return fresh


@pytest.fixture
def gap_evals(monkeypatch):
    """Trial shifts passed to candidate_measure, in call order."""
    calls = []
    real = stationary.candidate_measure

    def counted(shift, policy, params):
        calls.append(shift)
        return real(shift, policy, params)

    monkeypatch.setattr(stationary, "candidate_measure", counted)
    return calls


def _memo_solve(trigger=3, **over):
    p = _params(**{**MEMO_MARKET, **over})
    return solve_stationary(Policy.trigger_policy(trigger, p), p)


def test_memo_shares_markets_that_differ_only_in_preferences(memo, gap_evals):
    base = _memo_solve()
    cold = len(gap_evals)
    assert cold > 0
    for over in (
        {"cost": {"type": "linear", "kappa": 0.3}},
        {"r": 0.25},
        {"eta_prime": 2.0},
        {"rho": 0.8},
        {"subsidy": 0.05},
        {"public_signals": 2},
    ):
        state = _memo_solve(**over)
        assert state.mu is base.mu and state.c_bar == base.c_bar, over
    assert len(gap_evals) == cold
    assert len(memo) == 1


@pytest.mark.parametrize(
    "over, effort_at",
    [
        ({"eta": 0.74}, None),
        ({"pi": [0.5, 0.5]}, None),
        ({"c_hi": 1.2}, None),
        ({"n_max": 41}, None),
        ({}, 7),
    ],
    ids=["eta", "pi", "c_hi", "n_max", "one-effort"],
)
def test_memo_solves_again_when_the_market_changes(memo, gap_evals, over, effort_at):
    _memo_solve()
    cold = len(gap_evals)
    p = _params(**{**MEMO_MARKET, **over})
    efforts = Policy.trigger_policy(3, p).efforts.copy()
    if effort_at is not None:
        efforts[effort_at] = 0.5
    solve_stationary(Policy(efforts), p)
    assert len(gap_evals) > cold
    assert len(memo) == 2


def test_memo_hit_is_bit_identical_to_a_cold_solve(memo):
    _memo_solve()
    warm = _memo_solve(cost={"type": "linear", "kappa": 0.3})
    memo.clear()
    cold = _memo_solve(cost={"type": "linear", "kappa": 0.3})
    assert warm.mu is not cold.mu
    assert warm.mu.weights.tobytes() == cold.mu.weights.tobytes()
    assert warm.mu.tail_mass == cold.mu.tail_mass
    assert warm.c_bar == cold.c_bar


def test_memo_hit_returns_the_callers_policy(memo):
    p = _params(**MEMO_MARKET)
    first = solve_stationary(Policy.trigger_policy(3, p), p)
    listed = Policy(first.policy.efforts.copy())
    second = solve_stationary(listed, p)
    assert second.mu is first.mu
    assert second.policy is listed


def test_memo_hit_still_validates_effort_bounds(memo):
    p = _params(**MEMO_MARKET)
    pol = Policy.trigger_policy(3, p)
    solve_stationary(pol, p)
    # c_lo is not part of the key: the same efforts now fall below the floor.
    with pytest.raises(ValidationError):
        solve_stationary(pol, p.with_(c_lo=0.2))


def test_memo_does_not_store_failures(memo, monkeypatch):
    # Count uncached solves, which both gap paths pass through.
    solves = []
    real = stationary._solve

    def counted(policy, params):
        solves.append(policy)
        return real(policy, params)

    monkeypatch.setattr(stationary, "_solve", counted)
    # The solve finds its root, but the mass past the grid underflows (eta
    # 1e-300), so the unit-mass check rejects it.
    p = _params(eta=1e-300, c_lo=1e6, c_hi=1e6, n_max=3, cost={"type": "linear", "kappa": 1e6})
    pol = Policy.constant(1e6, p)
    with pytest.raises(SolverError):
        solve_stationary(pol, p)
    assert len(solves) == 1
    with pytest.raises(SolverError):
        solve_stationary(pol, p)
    assert len(solves) == 2
    assert len(memo) == 0


def test_memo_evicts_the_least_recently_used_market(memo, gap_evals, monkeypatch):
    monkeypatch.setattr(stationary, "_MEMO_SIZE", 2)
    _memo_solve(trigger=1)
    _memo_solve(trigger=2)
    _memo_solve(trigger=1)  # hit: trigger 2 is now the oldest
    _memo_solve(trigger=3)  # evicts trigger 2
    assert len(memo) == 2
    before = len(gap_evals)
    _memo_solve(trigger=1)
    assert len(gap_evals) == before
    _memo_solve(trigger=2)
    assert len(gap_evals) > before
