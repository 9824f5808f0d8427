"""The stationary solve's Brent root finder against scipy's ``brentq`` as the oracle.

``stationary._brent`` is a port of ``brentq`` that takes the two end values
as given; it must evaluate the same trial points and return the same root,
bit for bit.  On trigger markets ``solve_stationary`` runs it on the
closed-form gap instead of the kernel's, and its root is held to the kernel
root within a few ulps.  Examples are derandomized and no example database is
kept.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from percolate import Policy, SolverError, load_params, solve_stationary
from percolate.stationary import (
    ROOT_TOL,
    _RTOL,
    _XTOL,
    _brent,
    average_effort,
    candidate_measure,
)
from conftest import make_scenario, ulps_apart
from oracles import zero_bin_root


def _both(f, lo: float, hi: float) -> tuple[list[str], list[str]]:
    """Every trial point, then the root, as float.hex: scipy's brentq and then the port."""

    def recorded(trials: list):
        def g(x: float) -> float:
            trials.append(float(x).hex())
            return f(x)
        return g

    ref: list[str] = []
    ref.append(brentq(recorded(ref), lo, hi, xtol=_XTOL, rtol=_RTOL, disp=False).hex())
    # brentq evaluates both ends itself; the port is handed them.
    port = [float(lo).hex(), float(hi).hex()]
    port.append(_brent(recorded(port), lo, hi, f(lo), f(hi)).hex())
    return ref, port


@st.composite
def increasing_functions(draw):
    """An increasing f on [lo, hi] with f(lo) < 0 < f(hi), -inf left of an optional cut."""
    lo = draw(st.floats(0.0, 2.0))
    hi = lo + draw(st.floats(1e-6, 3.0))
    root = draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
    slope = draw(st.floats(1e-3, 1e3))
    cube = draw(st.floats(0.0, 1e2))
    curve = draw(st.floats(0.0, 40.0))
    cut = draw(st.none() | st.floats(lo, root, exclude_max=True))

    def f(x: float) -> float:
        # The gap of an infeasible trial is -inf, on a segment left of the root.
        if cut is not None and x < cut:
            return -math.inf
        d = x - root
        return slope * d + cube * d * d * d + math.expm1(curve * d)

    return lo, hi, f


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(increasing_functions())
def test_port_matches_brentq_bit_for_bit(case):
    lo, hi, f = case
    assume(f(lo) < 0.0 < f(hi))  # a root within a few ulps of lo can round f(lo) to 0
    ref, port = _both(f, lo, hi)
    assert port == ref


@pytest.mark.parametrize("c_lo", [0.0, 0.1])
@pytest.mark.parametrize("pi", [[1.0], {"0": 0.25, "1": 0.75}, {"1": 0.7, "4": 0.3}])
def test_port_matches_brentq_on_the_stationary_gap(c_lo, pi):
    solved = 0
    for eta in (0.6, 1.25, 2.0):
        params = load_params(make_scenario(eta=eta, c_lo=c_lo, pi=pi, n_max=256))
        for trigger in range(0, 31, 3):
            policy = Policy.trigger_policy(trigger, params)
            c0, p0 = float(policy.efforts[0]), float(params.pi.weights[0])

            def c_bar(s: float) -> float:
                return s + 2.0 * c0 * zero_bin_root(s, c0, p0, eta)

            def gap(s: float) -> float:
                try:
                    return c_bar(s) - average_effort(candidate_measure(s, policy, params), policy)
                except SolverError:
                    return -math.inf

            lo, hi = 0.0 - c0 * p0, params.c_hi
            if not (gap(lo) < -ROOT_TOL and gap(hi) > ROOT_TOL):
                continue  # the solve takes an end of the bracket, no Brent iteration
            ref, port = _both(gap, lo, hi)
            assert port == ref, (eta, trigger)
            # Every trigger market here takes the closed-form gap, corrected for
            # the mass past the grid when c_lo > 0.
            solved_c_bar = solve_stationary(policy, params).c_bar
            assert ulps_apart(solved_c_bar, c_bar(float.fromhex(port[-1]))) <= 4, (eta, trigger)
            solved += 1
    assert solved >= 20
