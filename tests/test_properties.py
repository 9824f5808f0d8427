"""Property tests: random valid scenarios solve cleanly, random invalid ones are rejected.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from percolate import (
    ModelParams, Policy, SimConfig, SolverError, ValidationError, correspondence, estimate_value,
    exit_utility, load_params, run, solve_value, trigger_bounds,
)
from percolate.best_response import VALUE_TOL, _fixed_terms, bellman_operator
from percolate.model import N_MAX_LIMIT
from percolate.stationary import (
    _CLOSED_FORM_MAX_TRIGGER, MASS_TOL, RESIDUAL_TOL, ROOT_TOL, _brent, _closed_form_mass,
    _feasibility_floor, average_effort, balance_residual, candidate_measure, is_stable,
    solve_stationary,
)
from conftest import SIM_ARRAYS, SIM_COUNTERS, make_scenario, ulps_apart
from oracles import candidate_measure_loop, estimate_value_loop, kernel_gap_solve, run_loop

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def scenarios(draw):
    """A valid scenario on a grid of at most 64 bins, with a trigger policy."""
    n_max = draw(st.integers(2, 64))
    support = draw(st.lists(st.integers(0, min(5, n_max)), min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    pi = {str(k): w / sum(raw) for k, w in zip(support, raw)}
    c_lo = draw(st.floats(0.0, 1.0))
    c_hi = draw(st.floats(max(c_lo, 0.01), c_lo + 2.0))
    eta = draw(st.floats(0.05, 5.0))
    trigger = draw(st.integers(0, n_max + 2))
    return make_scenario(n_max=n_max, pi=pi, c_lo=c_lo, c_hi=c_hi, eta=eta), trigger


@PROPERTY
@given(scenarios())
def test_valid_scenarios_solve_or_fail_cleanly(case):
    scenario, trigger = case
    params = load_params(scenario)
    policy = Policy.trigger_policy(trigger, params)
    try:
        state = solve_stationary(policy, params)
    except SolverError:
        return
    res, _ = balance_residual(state.mu.weights, policy, params)
    assert float(np.max(np.abs(res))) < RESIDUAL_TOL
    if is_stable(policy, params):
        assert abs(state.mu.total_mass() - 1.0) <= MASS_TOL


@st.composite
def mass_markets(draw):
    """A market on at most 64 bins under a trigger, constant or list policy, either regime."""
    n_max = draw(st.integers(2, 64))
    support = draw(st.lists(st.integers(0, min(5, n_max)), min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    pi = {str(k): w / sum(raw) for k, w in zip(support, raw)}
    c_lo = draw(st.sampled_from([0.0, 0.1])) if draw(st.booleans()) else draw(st.floats(0.0, 1.0))
    c_hi = draw(st.floats(max(c_lo, 0.01), c_lo + 2.0))
    eta = draw(st.floats(0.01, 5.0))
    params = load_params(make_scenario(n_max=n_max, pi=pi, c_lo=c_lo, c_hi=c_hi, eta=eta))
    effort = st.floats(c_lo, c_hi)
    kind = draw(st.sampled_from(["trigger", "constant", "list"]))
    if kind == "trigger":
        return params, Policy.trigger_policy(draw(st.integers(0, n_max + 2)), params)
    if kind == "constant":
        return params, Policy.constant(draw(effort), params)
    return params, Policy.from_list(draw(st.lists(effort, min_size=1, max_size=n_max)), params)


@PROPERTY
@given(mass_markets())
@example((load_params(make_scenario(eta=0.05, c_lo=0.5, n_max=64)),
          Policy(np.ones(65))))
def test_every_solve_keeps_unit_mass(case):
    # Summing the balance equations makes grid mass plus tail mass 1 up to the
    # residuals, in the unstable regime too, where the tail holds much of it.
    params, policy = case
    try:
        state = solve_stationary(policy, params)
    except SolverError:
        return
    assert abs(state.mu.grid_mass() + state.mu.tail_mass - 1.0) <= MASS_TOL


# ---------------------------------------------------------------------------
# Stationary kernel against the per-precision recursion
# ---------------------------------------------------------------------------


@st.composite
def kernel_cases(draw):
    """A market, a policy of 1-6 runs of equal effort and a trial average effort."""
    n_max = draw(st.integers(2, 64))
    support = draw(st.lists(st.integers(1, min(5, n_max)), min_size=1, max_size=5, unique=True))
    if draw(st.booleans()):
        support.append(0)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    pi = {str(k): w / sum(raw) for k, w in zip(support, raw)}
    c_lo = draw(st.sampled_from([0.0, 0.1])) if draw(st.booleans()) else draw(st.floats(0.0, 1.0))
    c_hi = draw(st.floats(max(c_lo, 0.01), c_lo + 2.0))
    eta = draw(st.floats(0.05, 5.0))
    params = load_params(make_scenario(n_max=n_max, pi=pi, c_lo=c_lo, c_hi=c_hi, eta=eta))

    n_runs = draw(st.integers(1, min(6, n_max)))
    cuts = sorted(draw(st.lists(st.integers(2, n_max), min_size=n_runs - 1,
                                max_size=n_runs - 1, unique=True)))
    effort = st.one_of(st.sampled_from([c_lo, c_hi]), st.floats(c_lo, c_hi))
    levels = [draw(effort) for _ in range(n_runs)]
    lengths = [b - a for a, b in zip([1, *cuts], [*cuts, n_max + 1])]
    if draw(st.booleans()):
        # A list policy: the last run is the repeated tail, precision 0 copies precision 1.
        values = [v for v, n in zip(levels, lengths) for _ in range(n)]
        policy = Policy.from_list(values[: draw(st.integers(len(values) - lengths[-1] + 1,
                                                            len(values)))], params)
    else:
        efforts = np.repeat([draw(effort), *levels], [1, *lengths])
        policy = Policy(efforts)

    floor = _feasibility_floor(policy, params)
    trial = floor + draw(st.floats(0.0, 1.0)) * max(c_hi - floor, 0.0)
    return params, policy, trial


def _failure(message: str) -> tuple[str, ...] | None:
    """The failure kind and the precision it names, if any."""
    found = re.match(r"(.*) at precision (\d+)", message)
    return found.groups() if found else None


@settings(PROPERTY, max_examples=300)
@given(kernel_cases())
def test_kernel_matches_per_precision_recursion(case):
    params, policy, trial = case
    try:
        expected = candidate_measure_loop(trial, policy.efforts, params.pi.weights, params.eta)
    except SolverError as exc:
        with pytest.raises(SolverError) as got:
            candidate_measure(trial, policy, params)
        assert _failure(str(got.value)) == _failure(str(exc))
        return
    weights = candidate_measure(trial, policy, params).weights
    np.testing.assert_allclose(weights, expected, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Closed-form gap of c_lo = 0 trigger markets against the kernel gap
# ---------------------------------------------------------------------------


@st.composite
def trigger_markets(draw):
    """A c_lo = 0 trigger market on at most 256 bins, entry mass at 0 or not, and trial fractions.

    The trigger is at most _CLOSED_FORM_MAX_TRIGGER, the largest that takes the closed form.
    """
    n_max = draw(st.integers(2, 256))
    support = draw(st.lists(st.integers(1, min(8, n_max)), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        support.append(0)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    pi = {str(k): w / sum(raw) for k, w in zip(support, raw)}
    c_hi = draw(st.floats(0.01, 2.0))
    eta = draw(st.floats(0.05, 5.0))
    params = load_params(make_scenario(n_max=n_max, pi=pi, c_lo=0.0, c_hi=c_hi, eta=eta))
    trigger = draw(st.integers(1, min(n_max, _CLOSED_FORM_MAX_TRIGGER)))
    trials = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return params, Policy.trigger_policy(trigger, params), trials


@settings(PROPERTY, max_examples=300)
@given(trigger_markets())
def test_closed_form_gap_matches_the_kernel_gap(case):
    params, policy, trials = case
    mass = _closed_form_mass(policy, params)
    assert mass is not None

    def kernel_gap(x: float) -> float:
        try:
            return x - average_effort(candidate_measure(x, policy, params), policy)
        except SolverError:
            return -math.inf

    def closed_gap(x: float) -> float:
        return x - mass(x)

    lo = _feasibility_floor(policy, params)
    hi = max(params.c_hi, lo)
    for u in trials:
        x = lo + u * (hi - lo)
        g, closed = kernel_gap(x), closed_gap(x)
        assert not math.isnan(closed)
        if math.isfinite(g):  # a feasible trial: the masses x - g agree
            assert abs(closed - g) <= 1e-13 * (x - g), x
    g_lo, g_hi = kernel_gap(lo), kernel_gap(hi)
    if not (g_lo < -ROOT_TOL and g_hi > ROOT_TOL):
        return  # the solve takes an end of the bracket, no Brent iteration
    root = _brent(closed_gap, lo, hi, closed_gap(lo), closed_gap(hi))
    assert ulps_apart(root, _brent(kernel_gap, lo, hi, g_lo, g_hi)) <= 4
    try:
        state = solve_stationary(policy, params)
    except SolverError:
        return  # rejected on the kernel measure at the root, as before
    assert state.c_bar == root


# ---------------------------------------------------------------------------
# Corrected closed form of c_lo > 0 markets against the kernel-gap solve
# ---------------------------------------------------------------------------


@st.composite
def tail_markets(draw):
    """A c_lo > 0 trigger or constant market on 4 to 256 bins, entry mass at 0 or not."""
    n_max = draw(st.integers(4, 256))
    support = draw(st.lists(st.integers(1, min(8, n_max)), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        support.append(0)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    pi = {str(k): w / sum(raw) for k, w in zip(support, raw)}
    c_lo = draw(st.floats(0.01, 1.0))
    c_hi = draw(st.floats(c_lo, c_lo + 2.0))
    eta = draw(st.floats(0.05, 5.0))
    params = load_params(make_scenario(n_max=n_max, pi=pi, c_lo=c_lo, c_hi=c_hi, eta=eta))
    if draw(st.booleans()):
        return params, Policy.constant(draw(st.floats(c_lo, c_hi)), params), False
    trigger = draw(st.integers(0, min(n_max, _CLOSED_FORM_MAX_TRIGGER)))
    return params, Policy.trigger_policy(trigger, params), False


def _falls_back(policy, **over) -> tuple:
    """A c_lo = 0.1 market whose corrected closed-form root does not settle, so the kernel gap solves it."""
    params = load_params(make_scenario(c_lo=0.1, **over))
    return params, policy(params), True


def _at_scale(eta: float) -> tuple:
    """Constant effort 1e6 with entry at 1 on 13 bins, where the kernel gap solves it.

    The acceptance bounds are relative to max(1, c_bar) and max(1, eta); with
    absolute ones both solves failed on rounding here.
    """
    params = load_params(make_scenario(eta=eta, c_hi=1e6, pi={"1": 1.0}, n_max=13))
    return params, Policy.constant(1e6, params), True


@settings(PROPERTY, max_examples=300)
@given(tail_markets())
@example(_falls_back(lambda p: Policy.trigger_policy(101, p), eta=0.5, n_max=256))
@example(_falls_back(lambda p: Policy.constant(0.9, p), n_max=8))
@example(_at_scale(1e6))
@example(_at_scale(1e8))
@example(_at_scale(1e10))
def test_corrected_closed_form_matches_the_kernel_gap_solve(case):
    params, policy, falls_back = case
    try:
        expected = kernel_gap_solve(policy, params)
    except SolverError:
        expected = None
    try:
        got = solve_stationary(policy, params).c_bar
    except SolverError:
        got = None
    assert (got is None) == (expected is None)
    if got is None:
        return
    if falls_back:
        assert got.hex() == expected.hex()
    else:
        assert ulps_apart(got, expected) <= 8


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_NUMBER = st.one_of(st.text(max_size=5), st.booleans(), st.none())
REAL_FIELDS = ["eta", "eta_prime", "r", "rho", "c_lo", "c_hi", "subsidy"]

invalid_overrides = st.one_of(
    st.builds(lambda k, v: {k: v}, st.sampled_from(REAL_FIELDS), st.one_of(NON_FINITE, NOT_A_NUMBER)),
    st.builds(lambda v: {"rho": v}, st.floats(min_value=1.0, allow_infinity=False)),
    st.builds(
        lambda k, v: {k: v},
        st.sampled_from(["eta", "eta_prime", "r"]),
        st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
    ),
    st.builds(lambda v: {"cost": {"type": "linear", "kappa": v}}, st.one_of(NON_FINITE, NOT_A_NUMBER)),
    st.builds(lambda v: {"n_max": v}, st.one_of(NON_FINITE, NOT_A_NUMBER)),
)


@PROPERTY
@given(invalid_overrides)
def test_invalid_fields_are_rejected(override):
    with pytest.raises(ValidationError):
        load_params(make_scenario(**override))


out_of_range_n_max = st.one_of(st.integers(max_value=1), st.integers(min_value=N_MAX_LIMIT + 1))


@PROPERTY
@given(out_of_range_n_max)
def test_out_of_range_grid_is_rejected_before_allocation(n_max):
    # An absurd n_max must fail its range check, never reach numpy's allocator.
    with pytest.raises(ValidationError, match="n_max"):
        load_params(make_scenario(n_max=n_max))
    with pytest.raises(ValidationError, match="n_max"):
        load_params(dict(make_scenario(), n_max=n_max))
    with pytest.raises(ValidationError, match="n_max"):
        ModelParams(n_max=n_max)


@st.composite
def full_scenarios(draw):
    """A valid scenario that sets every field: linear or tabulated cost, ``pi`` as
    a list or as a mapping that may charge precision 0, subsidy and public signals."""
    n_max = draw(st.integers(2, 64))
    if draw(st.booleans()):
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=min(5, n_max)))
        pi = [w / sum(raw) for w in raw]
    else:
        support = draw(st.lists(st.integers(0, min(5, n_max)), min_size=1, max_size=4, unique=True))
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
        pi = {str(k): w / sum(raw) for k, w in zip(support, raw)}
    c_lo = draw(st.floats(0.0, 1.0))
    c_hi = draw(st.floats(max(c_lo, 0.01), c_lo + 2.0))
    slopes = sorted(draw(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=4)))
    if draw(st.booleans()):
        cost = {"type": "linear", "kappa": slopes[0]}
    else:
        knots = np.linspace(0.0, c_hi, len(slopes) + 1)
        heights = np.concatenate([[0.0], np.cumsum(np.diff(knots) * slopes)])
        cost = {"type": "tabulated", "points": [[float(c), float(k)] for c, k in zip(knots, heights)]}
    return {
        "eta": draw(st.floats(0.05, 5.0)), "eta_prime": draw(st.floats(0.05, 5.0)),
        "r": draw(st.floats(0.01, 1.0)), "rho": draw(st.floats(0.0, 0.99)),
        "c_lo": c_lo, "c_hi": c_hi, "cost": cost, "pi": pi, "n_max": n_max,
        "public_signals": draw(st.integers(0, 5)),
        "subsidy": slopes[0] * draw(st.sampled_from([0.0, 0.5, 0.99])),
    }


@PROPERTY
@given(full_scenarios())
def test_scenario_round_trips_through_to_dict(scenario):
    params = load_params(scenario)
    assert load_params(params.to_dict()).digest() == params.digest()
    assert load_params(params.to_dict()).to_dict() == params.to_dict()


# ---------------------------------------------------------------------------
# Best response on random linear-cost markets
# ---------------------------------------------------------------------------


@st.composite
def linear_markets(draw):
    """Parameters of a random market with linear cost on a grid of 4 to 64 bins."""
    n_max = draw(st.integers(4, 64))
    support = draw(st.lists(st.integers(0, min(5, n_max)), min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    c_lo = draw(st.sampled_from([0.0, 0.1])) if draw(st.booleans()) else draw(st.floats(0.0, 0.5))
    scenario = make_scenario(
        n_max=n_max,
        pi={str(k): w / sum(raw) for k, w in zip(support, raw)},
        c_lo=c_lo,
        c_hi=draw(st.floats(c_lo + 0.05, c_lo + 2.0)),
        eta=draw(st.floats(0.1, 3.0)),
        eta_prime=draw(st.floats(0.1, 3.0)),
        r=draw(st.floats(0.01, 1.0)),
        rho=draw(st.floats(0.1, 0.9)),
        cost={"type": "linear", "kappa": draw(st.floats(0.005, 0.5))},
    )
    return load_params(scenario)


@st.composite
def solved_markets(draw):
    """A market of ``linear_markets`` under a trigger policy."""
    params = draw(linear_markets())
    return params, Policy.trigger_policy(draw(st.integers(0, params.n_max + 1)), params)


def _best_response(case):
    params, policy = case
    try:
        state = solve_stationary(policy, params)
    except SolverError:
        return None
    return params, state, solve_value(state, params)


@PROPERTY
@given(solved_markets())
def test_values_increase_in_precision(case):
    solved = _best_response(case)
    if solved is None:
        return
    _, _, br = solved
    # Each value is certified within VALUE_TOL of the true, increasing one.
    assert np.all(np.diff(br.value.values) >= -2.0 * VALUE_TOL)


# Searches at precision 0 alone (trigger 1) against every market trigger from 5
# to 22, while both bounds are 0: they cover search at precisions >= 1 only.
_ZERO_SEARCH = load_params(make_scenario(
    eta=1.1678, eta_prime=0.75, r=0.3087, rho=0.9, c_lo=0.0, c_hi=1.0897,
    cost={"type": "linear", "kappa": 0.3787}, pi={"1": 0.357, "4": 0.643}, n_max=21,
))


@PROPERTY
@given(solved_markets())
@example((_ZERO_SEARCH, Policy.trigger_policy(5, _ZERO_SEARCH)))
def test_linear_cost_optimum_is_a_trigger_within_the_bound(case):
    solved = _best_response(case)
    if solved is None:
        return
    params, _, br = solved
    efforts = br.policy.efforts
    assert br.trigger is not None
    assert np.all(efforts[: br.trigger] == params.c_hi)
    assert np.all(efforts[br.trigger :] == params.c_lo)
    # n_bar bounds the trigger only when r + eta' >= 1; the scan bound also
    # covers faster discounting.  Both bound search at precisions >= 1 only.
    # A bound clipped to n_max says only that searching may pay past the grid.
    bound = trigger_bounds(params)[1]
    assert bound == params.n_max or np.all(efforts[max(bound, 1) :] == params.c_lo)


@st.composite
def zero_entry_markets(draw):
    """A linear-cost market with entry mass at precision 0 in which no precision
    n >= 1 passes either scale of ``trigger_bounds`` and precision 0 may."""
    n_max = draw(st.integers(4, 32))
    support = draw(st.lists(st.integers(1, min(5, n_max)), min_size=1, max_size=3, unique=True))
    p0 = draw(st.floats(0.01, 0.99))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    c_lo = draw(st.sampled_from([0.0, 0.1])) if draw(st.booleans()) else draw(st.floats(0.0, 0.5))
    scenario = make_scenario(
        n_max=n_max,
        pi={"0": p0, **{str(k): (1.0 - p0) * w / sum(raw) for k, w in zip(support, raw)}},
        c_lo=c_lo,
        c_hi=draw(st.floats(c_lo + 0.05, c_lo + 2.0)),
        eta=draw(st.floats(0.1, 3.0)),
        eta_prime=draw(st.floats(0.1, 3.0)),
        r=draw(st.floats(0.01, 1.0)),
        rho=draw(st.floats(0.1, 0.9)),
    )
    p = load_params(scenario)
    discount = p.r + p.eta_prime
    scale = p.c_hi * p.eta_prime * max(discount, 1.0 / discount)
    gaps = -exit_utility(p, np.arange(2))
    kappa = scale * draw(st.floats(1.001 * gaps[1], 2.0 * gaps[0]))
    return load_params(dict(scenario, cost={"type": "linear", "kappa": kappa}))


# Trigger 1 is its only equilibrium, and active; a scan bound of 0 missed it.
_ZERO_ENTRY = load_params(make_scenario(
    eta=2.802165524797627, eta_prime=0.6688756127826893, r=0.22338643015885362,
    rho=0.8697745869341867, c_lo=0.1, c_hi=0.16625183233212976,
    cost={"type": "linear", "kappa": 0.03101423131968736},
    pi={"0": 0.12230497166453107, "1": 0.877695028335469}, n_max=32,
))


@PROPERTY
@given(zero_entry_markets())
@example(_ZERO_ENTRY)
def test_scan_reaches_every_active_trigger_one_equilibrium(params):
    # Trigger 1 searches at precision 0 alone, which counts only when
    # entrants hold precision 0; the scan must then visit it.
    assert trigger_bounds(params)[0] == 0
    try:
        entry = correspondence(1, params)
    except SolverError:
        return
    if entry.is_fixed_point and entry.is_active():
        assert trigger_bounds(params)[1] >= 1


@PROPERTY
@given(solved_markets())
def test_certified_value_error_holds_against_a_longer_iteration(case):
    solved = _best_response(case)
    if solved is None:
        return
    params, state, br = solved
    q = br.contraction_q
    values = br.value.values
    # Iterate on until the change stops shrinking: the reference is then
    # within q / (1 - q) times its last change of the true fixed point.
    last = math.inf
    fixed = _fixed_terms(state, params)
    for _ in range(100_000):
        new = bellman_operator(values, fixed)[0]
        change = float(np.max(np.abs(new - values)))
        values = new
        if change == 0.0 or change >= last:
            break
        last = change
    ref_error = q / (1.0 - q) * change if q > 0.0 else 0.0
    assert float(np.max(np.abs(br.value.values - values))) <= VALUE_TOL + ref_error


# ---------------------------------------------------------------------------
# Simulator on small random markets
# ---------------------------------------------------------------------------


@st.composite
def small_runs(draw, idle=False):
    """A market on at most 16 bins, a trigger or constant policy, and a run of
    at most 500 agents over t <= 2.  With ``idle`` nobody searches: c_lo = 0
    and the policy is trigger 0 or the constant 0."""
    n_max = draw(st.integers(2, 16))
    support = draw(st.lists(st.integers(1, min(5, n_max)), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        support.append(0)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)))
    if idle:
        c_lo = 0.0
    else:
        c_lo = draw(st.sampled_from([0.0, 0.1])) if draw(st.booleans()) else draw(st.floats(0.0, 1.0))
    c_hi = draw(st.floats(max(c_lo, 0.01), c_lo + 2.0))
    params = load_params(make_scenario(
        n_max=n_max,
        pi={str(k): w / sum(raw) for k, w in zip(support, raw)},
        c_lo=c_lo,
        c_hi=c_hi,
        eta=draw(st.floats(0.1, 3.0)),
        eta_prime=draw(st.floats(0.1, 3.0)),
        rho=draw(st.floats(0.1, 0.9)),
    ))
    if idle:
        policy = draw(st.sampled_from([Policy.trigger_policy(0, params), Policy.constant(0.0, params)]))
    elif draw(st.booleans()):
        policy = Policy.trigger_policy(draw(st.integers(0, n_max + 1)), params)
    else:
        policy = Policy.constant(draw(st.floats(c_lo, c_hi)), params)
    cfg = SimConfig(
        population=draw(st.integers(2, 500)),
        horizon=draw(st.floats(0.05, 2.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return policy, params, cfg


@settings(PROPERTY, max_examples=200)
@given(small_runs())
def test_run_conserves_population_and_counts_every_event(case):
    policy, params, cfg = case
    out = run(policy, params, cfg)
    assert np.all(out.histograms.sum(axis=1) == cfg.population)
    assert out.n_events == out.n_matches + out.n_resets + out.n_exits
    assert out.n_precision_caps <= out.n_matches


@PROPERTY
@given(small_runs(idle=True))
def test_idle_market_never_matches(case):
    out = run(*case)
    assert out.n_matches == 0
    assert out.n_pair_rejects == 0


@PROPERTY
@given(small_runs())
def test_same_seed_reproduces_the_run_bit_for_bit(case):
    a, b = run(*case), run(*case)
    for name in SIM_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in SIM_COUNTERS:
        assert getattr(a, name) == getattr(b, name), name


@st.composite
def class_runs(draw):
    """A ``small_runs`` market and run under a policy of one to four effort
    classes spread over the grid, any state y, and a value estimate of at
    most 300 replications from any entry precision."""
    _, params, cfg = draw(small_runs())
    values = draw(st.lists(st.floats(params.c_lo, params.c_hi), min_size=1, max_size=4, unique=True))
    size = params.n_max + 1
    policy = Policy(np.array(draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))))
    cfg = replace(cfg, y_realization=draw(st.floats(-2.0, 2.0)),
                  replications=draw(st.integers(1, 300)))
    return policy, params, cfg, draw(st.integers(0, params.n_max))


@PROPERTY
@given(class_runs())
def test_simulator_is_bit_identical_to_the_per_draw_loops(case):
    policy, params, cfg, entry = case
    new, old = run(policy, params, cfg), run_loop(policy, params, cfg)
    for name in SIM_ARRAYS:
        assert np.array_equal(getattr(new, name), getattr(old, name)), name
    for name in SIM_COUNTERS:
        assert getattr(new, name) == getattr(old, name), name
    try:
        solve_stationary(policy, params)
    except SolverError:
        return
    assert estimate_value(policy, params, cfg, entry) == estimate_value_loop(
        policy, params, cfg, entry)
