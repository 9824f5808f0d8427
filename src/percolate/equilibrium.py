"""Trigger-policy equilibria of the stationary market.

A trigger N is an equilibrium when the best response to the market that the
trigger-N policy itself induces is again consistent with trigger N at every
precision entrants can actually reach.  The map from market triggers to the
range of optimal trigger indices is monotone, so all fixed points are found
by a single descending scan from the search-payoff bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .best_response import (
    INDIFFERENCE_TOL,
    BestResponse,
    MinimalSearchReport,
    _payoff_bound,
    minimal_search_test,
    n_bar,
    solve_value,
    trigger_interval,
)
from .errors import SolverError, ValidationError
from .model import ModelParams, Policy
from .stationary import MarketState, solve_stationary

logger = logging.getLogger(__name__)


def reachable_floor(params: ModelParams) -> int:
    """Smallest precision an entrant can hold (minimum of the entry support)."""
    support = params.pi.support()
    if support.size == 0:
        raise ValidationError("entry measure has empty support")
    return int(support[0])


@dataclass(frozen=True, eq=False)
class CorrespondenceEntry:
    """Best-response summary for one market trigger.

    ``lo..hi`` is the range of trigger indices optimal against the trigger-n
    market, with optimality imposed only at reachable precisions.
    """

    market_trigger: int
    lo: int
    hi: int
    state: MarketState
    best_response: BestResponse

    @property
    def is_fixed_point(self) -> bool:
        return self.lo <= self.market_trigger <= self.hi


def correspondence(n: int, params: ModelParams) -> CorrespondenceEntry:
    """Solve the trigger-n market and the optimal trigger range against it."""
    state = solve_stationary(Policy.trigger_policy(n, params), params)
    br = solve_value(state, params)
    lo, hi = trigger_interval(br.switching, reachable_floor(params), INDIFFERENCE_TOL)
    return CorrespondenceEntry(market_trigger=n, lo=lo, hi=hi, state=state, best_response=br)


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """A fixed-point trigger with its market state and equilibrium value."""

    trigger: int
    state: MarketState
    best_response: BestResponse
    interval: tuple[int, int]

    def is_active(self, tol: float = 1e-9) -> bool:
        return self.trigger >= 1 and self.state.c_bar > tol


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """All trigger equilibria of a market, with scan diagnostics."""

    params: ModelParams
    equilibria: tuple[Equilibrium, ...]
    n_bar: int
    scan_bound: int
    correspondence_table: dict[int, tuple[int, int]]
    minimal_search: MinimalSearchReport

    def triggers(self) -> list[int]:
        return [e.trigger for e in self.equilibria]

    def best(self) -> Equilibrium:
        return self.equilibria[-1]

    def has_active(self, tol: float = 1e-9) -> bool:
        return any(e.is_active(tol) for e in self.equilibria)


def find_equilibria(params: ModelParams, allow_nonlinear: bool = False) -> EquilibriumReport:
    """Scan all trigger policies from the search-payoff bound down to 0.

    With linear cost best responses are bang-bang, so restricting the scan to
    triggers loses nothing.  For other convex costs pass ``allow_nonlinear``
    to scan triggers anyway; a trigger then counts as a fixed point only when
    the exact argmax policy coincides with it pointwise.
    """
    if params.effective_cost().kind != "linear" and not allow_nonlinear:
        raise ValidationError(
            "equilibrium search assumes linear cost (bang-bang optimality); "
            "pass allow_nonlinear=True to scan trigger policies regardless"
        )
    bound = n_bar(params)
    # The variant with the discount ratio eta' / (r + eta') coincides with
    # n_bar at r + eta' = 1; the larger of the two is safe for any discounting.
    top = max(bound, _payoff_bound(
        params, params.c_hi * params.eta_prime / (params.r + params.eta_prime)
    ))
    table: dict[int, tuple[int, int]] = {}
    found: list[Equilibrium] = []
    for n in range(top, -1, -1):
        entry = correspondence(n, params)
        table[n] = (entry.lo, entry.hi)
        if params.effective_cost().kind == "linear":
            is_fp = entry.is_fixed_point
        else:
            target = Policy.trigger_policy(n, params)
            is_fp = bool(np.max(np.abs(entry.best_response.policy.efforts - target.efforts)) < 1e-12)
        if is_fp:
            found.append(
                Equilibrium(
                    trigger=n,
                    state=entry.state,
                    best_response=entry.best_response,
                    interval=(entry.lo, entry.hi),
                )
            )
    found.sort(key=lambda e: e.trigger)

    minimal = minimal_search_test(params)
    zero_is_fp = bool(found and found[0].trigger == 0)
    if minimal.is_equilibrium != zero_is_fp:
        logger.warning(
            "minimal-search test (%s) disagrees with the trigger-0 scan (%s); "
            "likely an indifference boundary",
            minimal.is_equilibrium,
            zero_is_fp,
        )
    return EquilibriumReport(
        params=params,
        equilibria=tuple(found),
        n_bar=bound,
        scan_bound=top,
        correspondence_table=table,
        minimal_search=minimal,
    )


def pareto_rank(
    report: EquilibriumReport,
    tol: float = 1e-10,
) -> list[Equilibrium]:
    """Equilibria ordered best-first, asserting pointwise value dominance.

    Higher triggers coordinate more search and dominate pointwise; any
    violation beyond ``tol`` raises.
    """
    ordered = sorted(report.equilibria, key=lambda e: e.trigger, reverse=True)
    for better, worse in zip(ordered, ordered[1:]):
        gap = better.best_response.value.values - worse.best_response.value.values
        worst = float(gap.min())
        if worst < -tol:
            raise SolverError(
                f"value ordering violated between triggers {better.trigger} and "
                f"{worse.trigger}: min gap {worst:.3e}"
            )
    return ordered
