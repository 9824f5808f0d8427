"""Property tests: random valid scenarios solve cleanly, random invalid ones are rejected.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percolate import ModelParams, Policy, SolverError, ValidationError, load_params
from percolate.model import N_MAX_LIMIT
from percolate.stationary import (
    MASS_TOL, RESIDUAL_TOL, balance_residual, is_stable, solve_stationary,
)
from conftest import make_scenario

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
