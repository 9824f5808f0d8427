"""Trigger fixed points: descent scan, correspondence monotonicity, ranking."""

from __future__ import annotations

import numpy as np
import pytest

from percolate import (
    ValidationError,
    find_equilibria,
    load_params,
    minimal_search_test,
    pareto_rank,
)
from percolate.equilibrium import correspondence, reachable_floor
from conftest import make_scenario


def _params(**over):
    return load_params(make_scenario(**over))


@pytest.fixture(scope="module")
def report_002():
    return find_equilibria(_params(cost={"type": "linear", "kappa": 0.02}))


# ---------------------------------------------------------------------------
# Known equilibrium sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kappa,expected",
    [(0.1, [0, 1]), (0.05, [0, 1, 5, 6]), (0.02, [0, 1, 14])],
)
def test_equilibrium_sets_at_reference_costs(kappa, expected):
    rep = find_equilibria(_params(cost={"type": "linear", "kappa": kappa}))
    assert rep.triggers() == expected
    # every reported equilibrium really is a fixed point of the correspondence
    for eq in rep.equilibria:
        entry = correspondence(eq.trigger, rep.params)
        assert entry.is_fixed_point
        assert (entry.lo, entry.hi) == eq.interval
    # and the scan won't have missed interior candidates: non-equilibria fail
    for n, (lo, hi) in rep.correspondence_table.items():
        assert (lo <= n <= hi) == (n in expected)


def test_trigger_bound_and_scan_bound_reported():
    rep = find_equilibria(_params(cost={"type": "linear", "kappa": 0.05}))
    assert rep.n_bar == 63  # exact: 1.1 * 3/(j+3) >= 0.05 up to j = 63
    assert rep.scan_bound == 63
    assert all(0 <= t <= rep.scan_bound for t in rep.triggers())


def test_scan_bound_exceeds_n_bar_when_discounting_is_fast():
    # r + eta' = 0.6 < 1, so the quotient scale eta'/(r + eta') = 5/6 beats the
    # product scale eta'(r + eta') = 0.3.  With u(j) = -3/(j+3):
    # 0.9/(j+3) >= 0.04 up to j = 19; 2.5/(j+3) >= 0.04 up to j = 59.
    rep = find_equilibria(_params(eta_prime=0.5, cost={"type": "linear", "kappa": 0.04}))
    assert rep.n_bar == 19
    assert rep.scan_bound == 59
    assert rep.scan_bound > rep.n_bar
    assert sorted(rep.correspondence_table) == list(range(0, 60))


def test_correspondence_is_monotone_in_market_trigger(report_002):
    table = report_002.correspondence_table
    ns = sorted(table)
    assert ns == list(range(0, report_002.scan_bound + 1))
    los = [table[n][0] for n in ns]
    his = [table[n][1] for n in ns]
    assert all(a <= b for a, b in zip(los, los[1:]))
    assert all(a <= b for a, b in zip(his, his[1:]))


def test_zero_floor_always_admits_the_inactive_equilibrium():
    for kappa in (0.1, 0.05, 0.02, 0.01):
        rep = find_equilibria(_params(cost={"type": "linear", "kappa": kappa}))
        assert 0 in rep.triggers()
        eq0 = rep.equilibria[0]
        assert eq0.trigger == 0
        assert not eq0.is_active()
        assert eq0.state.c_bar == 0.0


def test_vacuous_twin_has_empty_market(report_002):
    by_trigger = {e.trigger: e for e in report_002.equilibria}
    # trigger 1 searches only below the entry floor, so it coordinates nothing
    assert by_trigger[1].state.c_bar == 0.0
    assert not by_trigger[1].is_active()
    assert by_trigger[14].is_active()
    assert report_002.has_active()
    rep_01 = find_equilibria(_params())
    assert rep_01.triggers() == [0, 1]
    assert not rep_01.has_active()


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def test_pareto_rank_orders_by_coordination(report_002):
    ranked = pareto_rank(report_002)
    assert [e.trigger for e in ranked] == [14, 1, 0]
    assert report_002.best().trigger == 14
    v1 = report_002.best().best_response.value.values[1]
    assert v1 == pytest.approx(-0.5565279490753868, abs=1e-9)
    assert report_002.best().state.c_bar == pytest.approx(0.9461947045365208, abs=1e-9)
    # active coordination strictly beats autarky at the entry precision
    assert v1 > by_value(ranked, 0) + 1e-3


def by_value(ranked, trigger):
    return next(float(e.best_response.value.values[1]) for e in ranked if e.trigger == trigger)


# ---------------------------------------------------------------------------
# Minimal search consistency and entry floors
# ---------------------------------------------------------------------------


def test_minimal_search_report_matches_scan():
    for kappa in (0.1, 0.02, 0.005):
        p = _params(c_lo=0.1, cost={"type": "linear", "kappa": kappa})
        rep = find_equilibria(p)
        assert rep.minimal_search.is_equilibrium == (0 in rep.triggers())
    # floor 0.1 with a cheap cost: deviating up is profitable, no trigger-0
    p = _params(c_lo=0.1, cost={"type": "linear", "kappa": 0.005})
    ms = minimal_search_test(p)
    assert ms.gain > ms.threshold
    assert not ms.is_equilibrium


def test_entry_mass_at_zero_shifts_the_floor():
    p = _params(pi={"0": 0.5, "8": 0.5})
    assert reachable_floor(p) == 0
    rep = find_equilibria(p)
    assert rep.triggers() == [0]
    entry = correspondence(1, p)
    assert not entry.is_fixed_point
    assert (entry.lo, entry.hi) == (0, 0)


def test_entry_floor_with_point_mass():
    assert reachable_floor(_params()) == 1
    assert reachable_floor(_params(pi={"3": 1.0})) == 3


# ---------------------------------------------------------------------------
# Cost-shape gate
# ---------------------------------------------------------------------------


def test_strictly_convex_cost_requires_opt_in():
    cost = {"type": "tabulated", "points": [[0.0, 0.0], [0.5, 0.04], [1.0, 0.2]]}
    p = _params(cost=cost)
    with pytest.raises(ValidationError):
        find_equilibria(p)
    rep = find_equilibria(p, allow_nonlinear=True)
    assert isinstance(rep.triggers(), list)
    for eq in rep.equilibria:
        assert correspondence(eq.trigger, p).is_fixed_point
