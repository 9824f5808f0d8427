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
from hypothesis import given, settings, strategies as st

from percolate import (
    ModelParams, Policy, SimConfig, SolverError, ValidationError, estimate_value, load_params,
    run, solve_value, trigger_bounds,
)
from percolate.best_response import VALUE_TOL, bellman_operator
from percolate.model import N_MAX_LIMIT
from percolate.stationary import (
    MASS_TOL, RESIDUAL_TOL, _feasibility_floor, balance_residual, candidate_measure, is_stable,
    solve_stationary,
)
from conftest import SIM_ARRAYS, SIM_COUNTERS, make_scenario
from oracles import candidate_measure_loop, estimate_value_loop, run_loop

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
        load_params(make_scenario(), n_max_override=n_max)
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


@PROPERTY
@given(solved_markets())
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
    # covers faster discounting.  A bound clipped to n_max says only that
    # searching may pay past the grid.
    bound = trigger_bounds(params)[1]
    assert bound == params.n_max or br.trigger <= bound


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
    for _ in range(100_000):
        new = bellman_operator(values, state, params)[0]
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
        state = solve_stationary(policy, params)
    except SolverError:
        return
    assert estimate_value(policy, params, cfg, entry, state) == estimate_value_loop(
        policy, params, cfg, entry, state)
