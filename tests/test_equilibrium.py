"""Trigger fixed points: descent scan, existence walk, correspondence monotonicity, ranking."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given

import percolate.equilibrium as equilibrium
import percolate.interventions as interventions
import percolate.stationary as stationary
from percolate import (
    SolverError,
    ValidationError,
    active_equilibrium_exists,
    find_education_witness,
    find_equilibria,
    find_subsidy_witness,
    load_params,
    minimal_search_test,
    pareto_rank,
)
from percolate.equilibrium import (
    CorrespondenceEntry,
    correspondence,
    reachable_floor,
)
from percolate.best_response import trigger_bounds
from conftest import POOL, make_scenario, ulps_apart
from test_properties import PROPERTY, linear_markets


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
    ms = minimal_search_test(correspondence(0, p).best_response, p)
    assert ms.gain > ms.threshold
    assert not ms.is_equilibrium


# Entry laws without mass at precision 1: the verdict read at precision 1
# disagreed with the scan on the first two (entrants never hold it) and on the
# third (precision-0 agents gain from search).
_FLOORLESS_LAWS = ({"2": 1.0}, {"2": 0.5, "5": 0.5}, {"0": 0.5, "8": 0.5})


@pytest.mark.parametrize("pi, kappa, triggers", [
    ({"2": 1.0}, 0.02, [0, 1, 2, 18]),
    ({"2": 0.5, "5": 0.5}, 0.025, [0, 1, 2, 17, 18]),
    ({"0": 0.5, "8": 0.5}, 0.028, [1, 13]),
])
def test_minimal_search_verdict_is_the_trigger_0_fixed_point(pi, kappa, triggers):
    p = _params(c_lo=0.1, pi=pi, cost={"type": "linear", "kappa": kappa})
    rep = find_equilibria(p)
    assert rep.triggers() == triggers
    assert rep.minimal_search.is_equilibrium == (0 in triggers)
    switching = correspondence(0, p).best_response.switching
    assert rep.minimal_search.gain == rep.minimal_search.threshold + switching[reachable_floor(p)]


@pytest.mark.parametrize("pi", _FLOORLESS_LAWS)
def test_minimal_search_verdict_matches_the_scan_without_entry_at_1(pi):
    for c_lo in (0.05, 0.1, 0.2):
        for kappa in np.linspace(0.001, 0.3, 25):
            p = _params(c_lo=c_lo, pi=pi, cost={"type": "linear", "kappa": float(kappa)})
            rep = find_equilibria(p)
            assert rep.minimal_search.is_equilibrium == (0 in rep.triggers()), (c_lo, kappa)


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


_STRICTLY_CONVEX = {"type": "tabulated", "points": [[0.0, 0.0], [0.5, 0.04], [1.0, 0.2]]}


def test_strictly_convex_cost_requires_opt_in():
    p = _params(cost=_STRICTLY_CONVEX)
    with pytest.raises(ValidationError):
        find_equilibria(p)


def test_existence_walk_strictly_convex_cost_requires_opt_in():
    p = _params(cost=_STRICTLY_CONVEX)
    with pytest.raises(ValidationError):
        active_equilibrium_exists(p)


# ---------------------------------------------------------------------------
# Existence walk: has_active() by jumping down the monotone correspondence
# ---------------------------------------------------------------------------


def _count_correspondence(monkeypatch) -> list[int]:
    """Record every trigger passed to ``correspondence`` through the module global."""
    seen: list[int] = []
    real = equilibrium.correspondence

    def counted(n, params):
        seen.append(n)
        return real(n, params)

    monkeypatch.setattr(equilibrium, "correspondence", counted)
    return seen


@pytest.mark.parametrize("entry", POOL, ids=[f"pool{i}" for i in range(len(POOL))])
def test_scan_matches_the_reference_on_every_pool_scenario(entry):
    # The benchmark's scan item checks: a benchmark pass draws 20 of these 72
    # scenarios by seed, so this covers every seed's draw.
    params = load_params(entry["scenario"])
    report = find_equilibria(params)
    assert report.triggers() == entry["triggers"]
    table = {str(k): list(v) for k, v in sorted(report.correspondence_table.items())}
    assert table == entry["correspondence"]
    for eq, c_bar in zip(report.equilibria, entry["c_bar"], strict=True):
        assert abs(eq.state.c_bar - c_bar) <= 1e-9 * max(1.0, abs(c_bar)), eq.trigger
        res, _ = stationary.balance_residual(eq.state.mu.weights, eq.state.policy, params)
        assert float(np.max(np.abs(res))) < 1e-10, eq.trigger
        assert abs(eq.state.mu.total_mass() - 1.0) <= 1e-8, eq.trigger


def test_walk_answers_has_active_on_the_pool(monkeypatch):
    seen = _count_correspondence(monkeypatch)
    walked = scanned = 0
    answers = set()
    for entry in POOL:
        p = load_params(entry["scenario"])
        before = len(seen)
        got = active_equilibrium_exists(p)
        walked += len(seen) - before
        assert seen[before] == trigger_bounds(p)[1]
        report = find_equilibria(p)
        scanned += len(report.correspondence_table)
        assert got == report.has_active(), entry["scenario"]
        answers.add(got)
    assert answers == {True, False}
    # The walk visited 377 of the 2,232 scanned triggers when it was written.
    assert 5 * walked < scanned


@PROPERTY
@given(linear_markets())
def test_walk_answers_has_active_on_random_markets(params):
    assert active_equilibrium_exists(params) == find_equilibria(params).has_active()


def test_walk_answers_has_active_at_every_witness_kappa(monkeypatch):
    asked: list[tuple] = []
    real = interventions.active_equilibrium_exists

    def recorded(params):
        answer = real(params)
        asked.append((params, answer))
        return answer

    monkeypatch.setattr(interventions, "active_equilibrium_exists", recorded)
    find_subsidy_witness(n_max=128)
    find_education_witness(n_max=128)
    assert len(asked) == 16 + 18 + 20
    for params, answer in asked:
        assert answer == find_equilibria(params).has_active(), params.cost.kappa


def test_walk_jumps_to_hi_and_passes_an_inactive_fixed_point(monkeypatch):
    # A monotone correspondence whose greatest fixed point, 5, does not
    # search, and whose next one, 3, does.
    seen: list[int] = []

    def staircase(n, params):
        seen.append(n)
        end = 5 if n >= 5 else 3 if n >= 3 else 0
        state = SimpleNamespace(c_bar=0.0 if n == 5 else 0.5)
        return CorrespondenceEntry(trigger=n, lo=end, hi=end, state=state, best_response=None)

    monkeypatch.setattr(equilibrium, "correspondence", staircase)
    p = _params(cost={"type": "linear", "kappa": 0.05})
    assert active_equilibrium_exists(p)
    assert seen == [trigger_bounds(p)[1], 5, 4, 3]


def test_a_non_monotone_correspondence_raises_through_the_witness(monkeypatch):
    real = equilibrium.correspondence
    seen: list[int] = []

    def bent(n, params):
        # hi falls as the trigger rises: the walk jumps from the top to 0,
        # where hi has risen.
        seen.append(n)
        return replace(real(n, params), lo=0, hi=trigger_bounds(params)[1] - n)

    monkeypatch.setattr(equilibrium, "correspondence", bent)
    p = _params(cost={"type": "linear", "kappa": 0.02})
    with pytest.raises(SolverError, match="^correspondence not monotone"):
        active_equilibrium_exists(p)
    assert seen == [trigger_bounds(p)[1], 0]
    seen.clear()
    # The education witness must not read the failure as "no witness at this rho".
    with pytest.raises(SolverError, match="^correspondence not monotone"):
        find_education_witness(n_max=128)
    assert len(seen) == 2


def test_the_scan_raises_on_a_non_monotone_correspondence(monkeypatch):
    # The bent correspondence above: the scan's first step down, from the top
    # to the trigger below it, finds hi risen.
    real = equilibrium.correspondence
    seen: list[int] = []

    def bent(n, params):
        seen.append(n)
        return replace(real(n, params), lo=0, hi=trigger_bounds(params)[1] - n)

    monkeypatch.setattr(equilibrium, "correspondence", bent)
    p = _params(cost={"type": "linear", "kappa": 0.02})
    with pytest.raises(SolverError, match="^correspondence not monotone"):
        find_equilibria(p)
    top = trigger_bounds(p)[1]
    assert seen == [top, top - 1]


def test_subsidy_witness_is_pinned(subsidy_witness):
    w = subsidy_witness
    b = w.boundary
    assert (float(b.active).hex(), float(b.inactive).hex(), b.evaluations) == (
        "0x1.8231628c14ef2p-5", "0x1.82373b20d95c4p-5", 16)
    assert (float(w.delta).hex(), float(w.tax).hex()) == (
        "0x1.5ba9e79a10184p-6", "0x1.2e3addead3d3cp-6")
    # The run-wise kernel gap gave ...3d3ep-6; the closed-form gap of the
    # c_lo = 0 trigger markets moves the tax by rounding only.
    assert ulps_apart(w.tax, float.fromhex("0x1.2e3addead3d3ep-6")) <= 4


def test_subsidy_witness_gap_evaluations_are_bounded(monkeypatch):
    # Summed over distinct markets, so a warm memo counts the same: a hit
    # carries its solve's count of kernel calls.  Every witness market is a
    # c_lo = 0 trigger market, whose closed-form gap needs the kernel only at
    # the root: one call per market, as the traced witness counts.
    states = {}
    real = stationary.solve_stationary

    def recorded(policy, params):
        state = real(policy, params)
        states[stationary._market_key(policy, params)] = state
        return state

    monkeypatch.setattr(equilibrium, "solve_stationary", recorded)
    interventions.find_subsidy_witness(n_max=128)
    assert len(states) == 126
    assert sum(state.gap_evals for state in states.values()) == 126


def test_education_witness_is_pinned(education_witness):
    w = education_witness
    b0, b1 = w.boundary_untreated, w.boundary_treated
    assert (w.rho, b0.evaluations, b1.evaluations) == (0.15, 18, 20)
    assert [float(x).hex() for x in (b0.active, b0.inactive, b1.active, b1.inactive)] == [
        "0x1.a6080b249359cp-5", "0x1.a60fb06cdbb0ep-5",
        "0x1.9937e2b9db159p-5", "0x1.993ed578f3500p-5",
    ]
    assert float(w.entry_utility_delta).hex() == "-0x1.247a2dcf26500p-10"
    # The run-wise kernel gap gave ...26700p-10.  The delta is a difference of
    # two values, so the closed-form gap's rounding moves it by about 1e-13 relative.
    old = float.fromhex("-0x1.247a2dcf26700p-10")
    assert abs(w.entry_utility_delta - old) <= 1e-12 * abs(old)
