"""Trigger-policy equilibria of the stationary market.

A trigger N is an equilibrium when the best response to the market that the
trigger-N policy itself induces is again consistent with trigger N at every
precision entrants can actually reach.  The map from market triggers to the
range [lo(n), hi(n)] of optimal trigger indices is monotone: both ends are
nondecreasing in n.  ``find_equilibria`` tabulates it by a descending scan
of every trigger from ``trigger_bounds``' scan bound to 0 and keeps the fixed
points.  ``active_equilibrium_exists`` asks only whether an active one
exists: hi(n) < n rules out every trigger in (hi(n), n], so its descending
walk jumps from n straight to hi(n) (Tarski 1955; Milgrom & Roberts 1990).
Both consume one descending walk, which checks that monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .best_response import (
    BestResponse,
    MinimalSearchReport,
    minimal_search_test,
    reachable_floor,
    solve_value,
    trigger_bounds,
    trigger_interval,
)
from .errors import SolverError, ValidationError
from .model import ModelParams, Policy
from .stationary import MarketState, solve_stationary

# Average effort at or below which a market counts as not searching, and how far a
# lower trigger's value may exceed a higher one's before ``pareto_rank`` raises.
ACTIVE_TOL = 1e-9
PARETO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CorrespondenceEntry:
    """Best response to one trigger market; an equilibrium when it is a fixed point.

    ``lo..hi`` is the range of trigger indices optimal against the market
    that the trigger-``trigger`` policy induces, with optimality imposed only
    at reachable precisions.  ``EquilibriumReport.equilibria`` holds the
    entries whose own trigger lies in that range.
    """

    trigger: int
    lo: int
    hi: int
    state: MarketState
    best_response: BestResponse

    @property
    def interval(self) -> tuple[int, int]:
        return self.lo, self.hi

    @property
    def is_fixed_point(self) -> bool:
        return self.lo <= self.trigger <= self.hi

    def is_active(self) -> bool:
        return self.trigger >= 1 and self.state.c_bar > ACTIVE_TOL


def correspondence(n: int, params: ModelParams) -> CorrespondenceEntry:
    """Solve the trigger-n market and the optimal trigger range against it."""
    state = solve_stationary(Policy.trigger_policy(n, params), params)
    br = solve_value(state, params)
    lo, hi = trigger_interval(br.switching, reachable_floor(params))
    return CorrespondenceEntry(trigger=n, lo=lo, hi=hi, state=state, best_response=br)


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """All trigger equilibria of a market, with scan diagnostics."""

    params: ModelParams
    equilibria: tuple[CorrespondenceEntry, ...]
    n_bar: int
    scan_bound: int
    correspondence_table: dict[int, tuple[int, int]]
    minimal_search: MinimalSearchReport

    def triggers(self) -> list[int]:
        return [e.trigger for e in self.equilibria]

    def best(self) -> CorrespondenceEntry:
        return self.equilibria[-1]

    def has_active(self) -> bool:
        return any(e.is_active() for e in self.equilibria)


def _require_linear_cost(params: ModelParams) -> None:
    if params.effective_cost().kind != "linear":
        raise ValidationError("equilibrium search assumes linear cost (bang-bang optimality)")


def _walk(params: ModelParams, top: int, step):
    """Entries from trigger ``top`` down, e then ``step(e)``; SolverError where lo or hi rises."""
    n, above = top, None
    while n >= 0:
        entry = correspondence(n, params)
        if above is not None and (entry.lo > above.lo or entry.hi > above.hi):
            raise SolverError(
                f"correspondence not monotone: trigger {entry.trigger} gives {entry.interval}, "
                f"trigger {above.trigger} gives {above.interval}"
            )
        yield entry
        above = entry
        n = step(entry)


def find_equilibria(params: ModelParams) -> EquilibriumReport:
    """Scan all trigger policies from the scan bound down to 0.

    Only linear cost is accepted: its best responses are bang-bang, so
    restricting the scan to triggers loses nothing; any other cost raises
    ``ValidationError``, and a table that is not monotone ``SolverError``.
    Equilibria come out in increasing trigger order, and ``minimal_search``
    reads ``minimal_search_test``'s verdict on everyone searching at c_lo from
    the scan's last entry, trigger 0.
    """
    _require_linear_cost(params)
    bound, top = trigger_bounds(params)
    table: dict[int, tuple[int, int]] = {}
    found: list[CorrespondenceEntry] = []
    for entry in _walk(params, top, lambda e: e.trigger - 1):
        table[entry.trigger] = entry.interval
        if entry.is_fixed_point:
            found.append(entry)
    found.reverse()
    return EquilibriumReport(
        params=params,
        equilibria=tuple(found),
        n_bar=bound,
        scan_bound=top,
        correspondence_table=table,
        minimal_search=minimal_search_test(entry.best_response, params),
    )


def active_equilibrium_exists(params: ModelParams) -> bool:
    """Whether ``find_equilibria(params).has_active()``, without the full table.

    Walks down from the same scan bound and returns True at the first active
    fixed point.  At any other trigger n it goes on to min(hi(n), n - 1): no
    trigger k in (hi(n), n) can be a fixed point, since hi(k) <= hi(n) < k
    for a nondecreasing hi.  An inactive fixed point is walked past, not
    returned.  The answer rests on that monotonicity, checked as in the scan.
    Linear cost only, as for ``find_equilibria``.
    """
    _require_linear_cost(params)
    walk = _walk(params, trigger_bounds(params)[1], lambda e: min(e.hi, e.trigger - 1))
    return any(entry.is_fixed_point and entry.is_active() for entry in walk)


def pareto_rank(report: EquilibriumReport) -> list[CorrespondenceEntry]:
    """Equilibria ordered best-first, asserting pointwise value dominance.

    Higher triggers coordinate more search and dominate pointwise; any
    violation beyond ``PARETO_TOL`` raises.
    """
    ordered = sorted(report.equilibria, key=lambda e: e.trigger, reverse=True)
    for better, worse in zip(ordered, ordered[1:]):
        gap = better.best_response.value.values - worse.best_response.value.values
        worst = float(gap.min())
        if worst < -PARETO_TOL:
            raise SolverError(
                f"value ordering violated between triggers {better.trigger} and "
                f"{worse.trigger}: min gap {worst:.3e}"
            )
    return ordered
