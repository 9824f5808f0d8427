"""Policy interventions: effort subsidies and public exit signals.

A proportional subsidy delta lowers the marginal cost of search to
K'(c) - delta and is financed by a lump-sum entry tax tau = delta * c_bar / eta
balancing the flow budget at the treated equilibrium.  An education program
grants M free signals at exit, shifting the exit payoff to u(n + M).

Because equilibria can flip discontinuously, interesting witnesses sit next
to the boundary where an active (searching) equilibrium appears or vanishes.
The witness finders below locate that boundary by bisection on the cost
slope kappa and certify the welfare comparison on the entry support; every
bisection is recorded in the returned report.  Both build one fixed family
of markets (``_block_market``); only the grid size ``n_max`` is the caller's,
and the witnesses exist for n_max >= 17 (subsidy) and n_max >= 18 (education).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .equilibrium import (
    CorrespondenceEntry,
    EquilibriumReport,
    active_equilibrium_exists,
    find_equilibria,
)
from .errors import SolverError, ValidationError
from .model import CostSpec, ModelParams, PrecisionMeasure, exit_utility

# A welfare change counts as strict only beyond this magnitude.
WELFARE_TOL = 1e-12
# Witness markets: the entry block size, the relative width to which the
# kappa boundary is bisected, the subsidy witness's signal correlation and
# subsidy (a fraction of the baseline slope), the education witness's correlation.
WITNESS_BLOCK = 8
WITNESS_BAND = 1e-4
SUBSIDY_RHO = 0.5
SUBSIDY_FRACTION = 0.45
EDUCATION_RHO = 0.15


# ---------------------------------------------------------------------------
# Basic transformations
# ---------------------------------------------------------------------------

def apply_subsidy(params: ModelParams, delta: float) -> EquilibriumReport:
    """Add a proportional effort subsidy and scan the treated market.

    Returns the equilibrium report of the treated market (its ``params`` are
    the treated parameters).  ``welfare_compare`` prices the balanced-budget
    tax at the treated equilibrium it selects.
    """
    if delta < 0:
        raise ValidationError("subsidy must be nonnegative")
    return find_equilibria(params.with_(subsidy=params.subsidy + delta))


def apply_education(params: ModelParams, signals: int) -> ModelParams:
    """Grant every agent ``signals`` more public signals.

    Public signals are common to all agents and never pooled at meetings, so
    they leave the stationary measure unchanged and enter only through the
    exit payoff u(n + M).  (A grant of private signals at entry is already a
    shifted entry measure ``pi``.)
    """
    if signals < 0:
        raise ValidationError("signal grant must be nonnegative")
    return params.with_(public_signals=params.public_signals + signals)


def _select(report: EquilibriumReport, selection: str,
            anchor: int | None = None) -> CorrespondenceEntry:
    if not report.equilibria:
        raise SolverError("no equilibrium found to select from")
    if selection == "pareto_best":
        return report.equilibria[-1]
    if selection == "pareto_worst":
        return report.equilibria[0]
    if selection == "matched":
        if anchor is None:
            return report.equilibria[-1]
        return min(report.equilibria, key=lambda e: (abs(e.trigger - anchor), -e.trigger))
    raise ValidationError(f"unknown selection rule {selection!r}")


# ---------------------------------------------------------------------------
# Welfare comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InterventionOutcome:
    """Entrant-welfare comparison between a baseline and a treated market.

    ``tax`` is the balanced-budget entry tax delta * c_bar / eta of the subsidy
    delta that the treated market adds, at the selected treated equilibrium.
    ``welfare_delta[n]`` is V_treated(n) - tax - V_baseline(n).  The verdict
    aggregates the sign over the entry support: "improves" / "harms" when
    strict at every entry precision, else "ambiguous".
    """

    baseline: CorrespondenceEntry
    treated: CorrespondenceEntry
    tax: float
    welfare_delta: np.ndarray
    verdict: str
    selection: str

    @property
    def baseline_trigger(self) -> int:
        return self.baseline.trigger

    @property
    def treated_trigger(self) -> int:
        return self.treated.trigger


def welfare_compare(
    baseline: EquilibriumReport,
    treated: EquilibriumReport,
    selection: str = "pareto_best",
) -> InterventionOutcome:
    """Compare entrant values at selected equilibria, net of the entry tax.

    The subsidy is what ``treated`` adds to ``baseline``, read from their
    parameters; its tax subsidy * c_bar / eta is priced at the selected
    treated equilibrium.
    """
    eq_b = _select(baseline, selection)
    eq_t = _select(treated, selection, anchor=eq_b.trigger)
    subsidy = treated.params.subsidy - baseline.params.subsidy
    tax = subsidy * eq_t.state.c_bar / treated.params.eta
    delta = eq_t.best_response.value.values - tax - eq_b.best_response.value.values
    support = baseline.params.pi.support()
    on_support = delta[support]
    if np.all(on_support > WELFARE_TOL):
        verdict = "improves"
    elif np.all(on_support < -WELFARE_TOL):
        verdict = "harms"
    else:
        verdict = "ambiguous"
    return InterventionOutcome(
        baseline=eq_b,
        treated=eq_t,
        tax=tax,
        welfare_delta=delta,
        verdict=verdict,
        selection=selection,
    )


# ---------------------------------------------------------------------------
# Boundary location
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bisection:
    """Record of a boundary search over the cost slope kappa.

    ``active`` is the largest kappa observed with an active equilibrium,
    ``inactive`` the smallest without one (the predicate is nonincreasing in
    kappa); their gap is at most ``band`` in relative terms.
    """

    active: float
    inactive: float
    band: float
    evaluations: int


def _existence_boundary(make_params, lo: float, hi: float) -> Bisection:
    """Bisect kappa between an active and an inactive market to ``WITNESS_BAND``.

    Each evaluation asks only whether the market at that kappa has an active
    equilibrium, which ``active_equilibrium_exists`` answers by walking down
    the monotone correspondence instead of tabulating every trigger.  A range
    without a switch raises ``SolverError``, as does a solver failure such as
    a non-monotone correspondence.
    """
    evals = 0

    def active(x: float) -> bool:
        nonlocal evals
        evals += 1
        return active_equilibrium_exists(make_params(x))

    if not active(lo):
        # Very cheap search can push every fixed-point trigger past the grid
        # ceiling, so the active window may start strictly inside (lo, hi);
        # walk a geometric ladder to find a foothold before bisecting.
        foothold = None
        step = lo
        while True:
            step *= 1.5
            if step >= hi:
                break
            if active(step):
                foothold = step
                break
        if foothold is None:
            raise SolverError(f"no active equilibrium found above kappa={lo:.6g}")
        lo = foothold
    if active(hi):
        raise SolverError(f"active equilibrium persists up to kappa={hi:.6g}")
    while hi - lo > WITNESS_BAND * hi:
        mid = 0.5 * (lo + hi)
        if active(mid):
            lo = mid
        else:
            hi = mid
    return Bisection(active=lo, inactive=hi, band=WITNESS_BAND, evaluations=evals)


def _block_market(kappa: float, rho: float, n_max: int, public_signals: int = 0) -> ModelParams:
    """Witness market whose entrants hold 0 or ``WITNESS_BLOCK`` signals with equal odds."""
    return ModelParams(
        eta=1.0,
        eta_prime=1.0,
        r=0.1,
        rho=rho,
        c_lo=0.0,
        c_hi=1.0,
        cost=CostSpec(kind="linear", kappa=kappa),
        pi=PrecisionMeasure.from_mapping({0: 0.5, WITNESS_BLOCK: 0.5}, n_max),
        n_max=n_max,
        public_signals=public_signals,
    )


# ---------------------------------------------------------------------------
# Subsidy witness: a small subsidy flips the market into active search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubsidyWitness:
    """A cost slope just above the search boundary, flipped by a small subsidy."""

    params: ModelParams
    delta: float
    tax: float
    boundary: Bisection
    baseline: EquilibriumReport
    treated: EquilibriumReport
    outcome: InterventionOutcome


def _condition_margin(params: ModelParams, block: int) -> float:
    """Margin of the no-search-equilibrium condition at the entry block size.

    Negative margin means the marginal cost lies below the one-jump gain
    evaluated at the entry distribution itself (kappa small enough that the
    no-search market invites deviation at the block precision).
    """
    kp = params.effective_cost().marginal_right(params.c_lo)
    gain = (
        params.eta_prime
        / (params.r + params.eta_prime)
        * (exit_utility(params, 2 * block) - exit_utility(params, block))
        * params.c_hi
        * params.pi.weights[block]
    )
    return kp - gain


def find_subsidy_witness(n_max: int = 256) -> SubsidyWitness:
    """Construct a market where a tiny subsidy strictly improves all entrants.

    Entry mixes precision 0 and a block of ``WITNESS_BLOCK`` signals at
    correlation ``SUBSIDY_RHO``; search is worthless without coordination, so
    an active equilibrium exists only below a kappa threshold.  The threshold
    is located by bisection (recorded), the baseline slope is set just above
    it, and a subsidy of ``SUBSIDY_FRACTION`` of that slope bridges the gap,
    net of the balanced-budget entry tax.
    """
    make = partial(_block_market, rho=SUBSIDY_RHO, n_max=n_max)
    start = -_condition_margin(make(0.0), WITNESS_BLOCK)  # one-jump gain scale
    if start <= 0:
        raise SolverError("entry block carries no search gain; pick a larger block")
    boundary = _existence_boundary(make, start / 8.0, start)

    width = max(boundary.inactive - boundary.active, WITNESS_BAND * boundary.inactive)
    kappa_base = boundary.inactive + 2.0 * width
    params_base = make(kappa_base)

    baseline = find_equilibria(params_base)
    if baseline.has_active():
        raise SolverError("baseline unexpectedly active; widen the band")

    # A subsidy barely past the boundary leaves block entrants marginal: their
    # gross gain is second order in the overshoot while the entry tax is first
    # order in delta, so the net sign flips only once the treated market is
    # deep enough that entrants at the block are inframarginal: 0.3 of the
    # slope gives an ambiguous verdict on every grid, 0.45 works from n_max 17.
    delta = SUBSIDY_FRACTION * kappa_base
    treated = apply_subsidy(params_base, delta)
    if not treated.has_active():
        raise SolverError(f"no subsidy witness: delta={delta:.6g} failed to activate the market")
    outcome = welfare_compare(baseline, treated)
    if outcome.verdict != "improves":
        raise SolverError(f"no subsidy witness: delta={delta:.6g} gave verdict {outcome.verdict!r}")
    return SubsidyWitness(
        params=params_base,
        delta=delta,
        tax=outcome.tax,
        boundary=boundary,
        baseline=baseline,
        treated=treated,
        outcome=outcome,
    )


# ---------------------------------------------------------------------------
# Education witness: free information can destroy valuable search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EducationWitness:
    """A market where one free exit signal kills search and lowers welfare.

    ``entry_utility_delta`` is the expected value change for an entrant drawn
    from the entry measure (treated minus baseline); the witness certifies
    that it is strictly negative.  Entrants at the block can still gain a
    little individually — their search surplus is capped by the activation
    window while the free signal is worth a fixed amount to them — so the
    entrywise verdict may be ambiguous even though entry welfare falls.
    """

    params: ModelParams
    signals: int
    boundary_untreated: Bisection
    boundary_treated: Bisection
    baseline: EquilibriumReport
    treated: EquilibriumReport
    outcome: InterventionOutcome
    entry_utility_delta: float


def find_education_witness(n_max: int = 256) -> EducationWitness:
    """Construct a market where granting one free exit signal lowers entry welfare.

    The free signal shrinks the payoff gap that motivates search, so the
    kappa threshold for active equilibria drops.  For a cost slope between
    the treated and untreated thresholds, the baseline market searches while
    the treated one collapses to no search.  The signal's direct worth decays
    quadratically with correlation while the foregone ladder of pooling jumps
    scales with the block size, so weak signals favor the loss; the witness
    uses ``EDUCATION_RHO`` (both threshold bisections recorded).
    """
    make = partial(_block_market, rho=EDUCATION_RHO, n_max=n_max)
    start = -_condition_margin(make(0.0), WITNESS_BLOCK)
    if start <= 0:
        raise SolverError("no education witness: the entry block carries no search gain")
    b0 = _existence_boundary(make, start / 8.0, start)
    b1 = _existence_boundary(partial(make, public_signals=1), start / 16.0, start)
    if b1.inactive >= b0.active:
        raise SolverError("no education witness: thresholds not separated")
    # Sit near the bottom of the separating window: the baseline market
    # keeps as much search surplus as possible while one public signal
    # still collapses it.
    kappa = min(math.sqrt(b1.inactive * b0.active), b1.inactive * 1.05)
    baseline = find_equilibria(make(kappa))
    treated = find_equilibria(make(kappa, public_signals=1))
    if not baseline.has_active() or treated.has_active():
        raise SolverError("no education witness: the chosen slope did not separate the markets")
    outcome = welfare_compare(baseline, treated)
    entry_delta = float(np.dot(baseline.params.pi.weights, outcome.welfare_delta))
    if not entry_delta < -1e-10:
        raise SolverError(f"no education witness: entry utility did not fall ({entry_delta:.3e})")
    return EducationWitness(
        params=make(kappa),
        signals=1,
        boundary_untreated=b0,
        boundary_treated=b1,
        baseline=baseline,
        treated=treated,
        outcome=outcome,
        entry_utility_delta=entry_delta,
    )
