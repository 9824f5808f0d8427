"""Policy levers: balanced-budget subsidies and free-information grants."""

from __future__ import annotations

import numpy as np
import pytest

from percolate import (
    SolverError,
    ValidationError,
    apply_education,
    apply_subsidy,
    find_equilibria,
    load_params,
    welfare_compare,
)
from percolate.interventions import (
    _block_market,
    _existence_boundary,
    find_education_witness,
    find_subsidy_witness,
)
from conftest import make_scenario


def _params(**over):
    return load_params(make_scenario(**over))


def subsidy_trigger_path(params, deltas: "list[float]") -> list[int]:
    """Pareto-best treated triggers along a subsidy grid (should be nondecreasing)."""
    return [
        find_equilibria(params.with_(subsidy=params.subsidy + d)).best().trigger for d in deltas
    ]


def education_path(params, grants: "list[int]") -> list:
    """Equilibrium reports along a public-signal grid (triggers should fall)."""
    return [find_equilibria(apply_education(params, m)) for m in grants]


# ---------------------------------------------------------------------------
# Subsidy mechanics
# ---------------------------------------------------------------------------


def test_subsidy_budget_identity():
    p = _params(cost={"type": "linear", "kappa": 0.05})
    delta = 0.01
    treated_report = apply_subsidy(p, delta)
    treated = treated_report.params
    assert treated.subsidy == pytest.approx(delta)
    rep = find_equilibria(treated)
    tax = welfare_compare(find_equilibria(p), treated_report).tax
    assert tax == pytest.approx(delta * rep.best().state.c_bar / p.eta, abs=1e-12)
    # effective slope falls by exactly the subsidy
    assert treated.effective_cost().marginal_right(0.5) == pytest.approx(
        p.cost.marginal_right(0.5) - delta
    )


def test_subsidy_rejects_negative():
    with pytest.raises(ValidationError):
        apply_subsidy(_params(), -0.01)
    with pytest.raises(ValidationError):
        apply_education(_params(), -1)


def test_subsidy_path_is_nondecreasing():
    p = _params(cost={"type": "linear", "kappa": 0.05})
    kappa = 0.05
    deltas = [0.0, 0.25 * kappa, 0.5 * kappa, 0.75 * kappa]
    path = subsidy_trigger_path(p, deltas)
    assert path == sorted(path)
    assert path[-1] > path[0]  # a 75% slope cut must buy extra coordination


# ---------------------------------------------------------------------------
# Education mechanics
# ---------------------------------------------------------------------------


def test_education_shifts_exit_utility_only():
    p = _params()
    treated = apply_education(p, 2)
    assert treated.public_signals == p.public_signals + 2
    from percolate import exit_utility

    n = np.arange(6)
    np.testing.assert_allclose(exit_utility(treated, n), exit_utility(p, n + 2))


def test_education_path_weakly_lowers_triggers():
    p = _params(cost={"type": "linear", "kappa": 0.02})
    reports = education_path(p, [0, 1, 2, 3])
    best = [r.best().trigger for r in reports]
    assert best == sorted(best, reverse=True)
    assert best[0] == 14


# ---------------------------------------------------------------------------
# Witness constructions (session-scoped fixtures from conftest)
# ---------------------------------------------------------------------------


def test_subsidy_witness_certificate(subsidy_witness):
    w = subsidy_witness
    # the boundary was actually located by bisection, not assumed
    assert w.boundary.active < w.boundary.inactive
    assert (w.boundary.inactive - w.boundary.active) <= w.boundary.band * w.boundary.inactive * 1.0001
    assert w.boundary.evaluations >= 4
    # baseline sits strictly above the boundary: no active equilibrium
    assert w.params.cost.kappa > w.boundary.inactive
    assert not w.baseline.has_active()
    assert w.baseline.best().trigger == 0 or not w.baseline.best().is_active()
    # treated market coordinates
    assert w.treated.has_active()
    assert w.outcome.treated_trigger > w.outcome.baseline_trigger
    # strict improvement at every entry precision, net of the entry tax
    assert w.outcome.verdict == "improves"
    support = w.params.pi.support()
    assert np.all(w.outcome.welfare_delta[support] > 0)
    assert w.tax > 0


def test_education_witness_certificate(education_witness):
    w = education_witness
    assert w.signals == 1
    for b in (w.boundary_untreated, w.boundary_treated):
        assert b.active < b.inactive
        assert b.evaluations >= 4
    # the grant separates the two activation thresholds
    assert w.boundary_treated.inactive < w.boundary_untreated.active
    # the chosen slope lies inside the separating window
    assert w.boundary_treated.inactive < w.params.cost.kappa < w.boundary_untreated.active
    # baseline coordinates, treated market collapses to no search
    assert w.baseline.has_active()
    assert not w.treated.has_active()
    assert w.outcome.treated_trigger < w.outcome.baseline_trigger
    # expected utility of an entrant drawn from the entry measure strictly falls
    assert w.entry_utility_delta < -1e-10
    pi_w = w.params.pi.weights
    assert w.entry_utility_delta == pytest.approx(
        float(np.dot(pi_w, w.outcome.welfare_delta))
    )
    # the entrants who lose are those relying on the collapsed ladder
    assert w.outcome.welfare_delta[0] < 0


def test_subsidy_witness_exists_from_n_max_17():
    # At n_max 16 the subsidy activates the market but leaves some entrants
    # worse off net of the tax.
    with pytest.raises(SolverError, match="gave verdict 'ambiguous'"):
        find_subsidy_witness(n_max=16)
    assert find_subsidy_witness(n_max=17).outcome.verdict == "improves"


def test_education_witness_exists_from_n_max_18():
    with pytest.raises(SolverError):
        find_education_witness(n_max=17)
    assert find_education_witness(n_max=18).entry_utility_delta < -1e-10


def test_subsidy_witness_raises_without_a_foothold():
    # On a small grid no kappa below the one-jump gain scale is active.
    with pytest.raises(SolverError, match="no active equilibrium found above kappa"):
        find_subsidy_witness(n_max=10)


def test_existence_boundary_raises_when_the_upper_end_is_active():
    # Free search, whatever kappa is asked for: active at both ends.
    with pytest.raises(SolverError, match="active equilibrium persists up to kappa"):
        _existence_boundary(lambda kappa: _block_market(0.0, 0.5, 24), 0.01, 0.1)


# ---------------------------------------------------------------------------
# Comparison semantics
# ---------------------------------------------------------------------------


def test_welfare_compare_self_is_ambiguous():
    rep = find_equilibria(_params(cost={"type": "linear", "kappa": 0.02}))
    out = welfare_compare(rep, rep)
    assert out.verdict == "ambiguous"
    np.testing.assert_allclose(out.welfare_delta, 0.0, atol=1e-15)


def test_welfare_compare_tax_shifts_verdict():
    # A 1e-6 subsidy raises every entrant's value, and its tax, priced from
    # the subsidy the treated report carries, outweighs the gain.
    p = _params(cost={"type": "linear", "kappa": 0.02})
    baseline, treated = find_equilibria(p), apply_subsidy(p, 1e-6)
    out = welfare_compare(baseline, treated)
    assert out.tax == 1e-6 * out.treated.state.c_bar / treated.params.eta
    v_t, v_b = out.treated.best_response.value.values, out.baseline.best_response.value.values
    np.testing.assert_array_equal(out.welfare_delta, v_t - out.tax - v_b)
    assert np.all((v_t - v_b)[p.pi.support()] > 0)
    assert out.verdict == "harms"


def test_selection_rules():
    rep = find_equilibria(_params(cost={"type": "linear", "kappa": 0.02}))
    worst = welfare_compare(rep, rep, selection="pareto_worst")
    assert worst.baseline_trigger == 0
    best = welfare_compare(rep, rep, selection="pareto_best")
    assert best.baseline_trigger == 14
    matched = welfare_compare(rep, rep, selection="matched")
    assert matched.treated_trigger == matched.baseline_trigger
    with pytest.raises(ValidationError):
        welfare_compare(rep, rep, selection="median")
