"""Single-agent best response to a stationary market.

An agent of precision n searching at effort c against a market with
effort-weighted measure nu (total mass c_bar) meets partners at rate
c * c_bar, jumps by the partner's precision drawn from nu / c_bar, exits at
rate eta' collecting u(n), discounts at r, and pays flow cost K(c).  The
value solves

    V_n = max_c ( eta' u_n - K(c) + c * sum_m V_{n+m} nu_m ) / (c c_bar + r + eta'),

a sup-norm contraction with modulus c_hi c_bar / (c_hi c_bar + r + eta').
Beyond the grid the value is closed by the stop-searching continuation
(eta' u(n) - K(c_lo)) / (r + eta'), raised to the value at n_max where that
is larger: the true value increases in precision, so this is still a lower
bound, and the closed operator maps increasing values to increasing values
even when searching pays past the grid.  ``solve_value`` builds the
operator's fixed terms once per solve (the tail, the market's effort
weights, and each candidate effort's numerator constant and denominator), so
an iteration is one correlation and the candidate maximum.

With linear cost the inner maximization is bang-bang and the optimal policy
is a trigger: effort c_hi exactly while the switching sequence
S_n - K'(c_lo), with S_n = sum_{m>=1} (V_{n+m} - V_n) nu_m, stays positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import CostSpec, ModelParams, Policy, ValueFunction, exit_utility
from .stationary import MarketState

# True-error target of value iteration (the stop is scaled by the contraction
# modulus) and the half-width of the band around zero read as exact
# indifference in the switching sequence.
VALUE_TOL = 1e-10
INDIFFERENCE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Bellman operator
# ---------------------------------------------------------------------------

def _tail_values(params: ModelParams, u: float | np.ndarray) -> float | np.ndarray:
    """Stop-searching continuation (eta' u - K(c_lo)) / (r + eta') at exit payoffs u."""
    k_lo = params.effective_cost().cost(params.c_lo)
    return (params.eta_prime * u - k_lo) / (params.r + params.eta_prime)


@dataclass(frozen=True, eq=False)
class _FixedTerms:
    """What the Bellman operator reads that stays fixed over one value iteration.

    ``terms`` holds, per candidate effort c in increasing order, the numerator
    constant eta' u - K(c) over the grid and the denominator c c_bar + r + eta'.
    ``pad`` is the operator's scratch buffer for the padded values.
    """

    tail: np.ndarray
    w: np.ndarray
    c_bar: float
    cost: CostSpec
    terms: tuple[tuple[float, np.ndarray, float], ...]
    pad: np.ndarray


def _fixed_terms(state: MarketState, params: ModelParams) -> _FixedTerms:
    """The operator's fixed terms; SolverError if values could leave the float range."""
    w = state.policy.efforts * state.mu.weights
    c_bar = float(w.sum())
    cost = params.effective_cost()
    efforts = cost.candidate_efforts(params.c_lo, params.c_hi)
    costs = [cost.cost(float(c)) for c in efforts]
    # With -1 <= u <= 0, every iterate, candidate objective and tail value is at
    # most scale in size, and the operator multiplies values by at most
    # c_hi c_bar: a cost that dwarfs r + eta' fails here instead of overflowing.
    scale = (params.eta_prime + max(map(abs, costs))) / (params.r + params.eta_prime)
    if not 4.0 * scale * max(1.0, params.c_hi) * max(1.0, c_bar) <= np.finfo(float).max:
        raise SolverError(f"values up to (eta' + K) / (r + eta') = {scale:.3g} leave the float range")
    u = exit_utility(params, np.arange(2 * params.n_max + 1))
    tail = _tail_values(params, u)
    u = u[: params.n_max + 1]
    terms = tuple(
        (c, params.eta_prime * u - k, c * c_bar + params.r + params.eta_prime)
        for c, k in zip(efforts, costs)
    )
    return _FixedTerms(tail, w, c_bar, cost, terms, np.empty(tail.size))


def _objectives(fixed: _FixedTerms, y: np.ndarray) -> list[np.ndarray]:
    """The candidate objective (eta' u - K(c) + c Y) / (c c_bar + r + eta'), per candidate c."""
    return [(num + c * y) / den for c, num, den in fixed.terms]


def bellman_operator(values: np.ndarray, fixed: _FixedTerms) -> tuple[np.ndarray, np.ndarray]:
    """One application of the best-response operator.

    Returns (updated values, jump expectation Y) where
    Y_n = sum_{m>=0} V_{n+m} nu_m uses the tail continuation past the grid,
    floored at V_{n_max}.  ``fixed`` holds the terms that do not depend on
    ``values`` (``_fixed_terms``).
    """
    n = values.size
    pad = fixed.pad
    pad[:n] = values
    np.maximum(fixed.tail[n:], values[-1], out=pad[n:])
    y = np.correlate(pad, fixed.w, mode="valid")
    best, *rest = _objectives(fixed, y)
    for f in rest:
        np.maximum(f, best, out=best)
    return best, y


# ---------------------------------------------------------------------------
# Best-response container and solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BestResponse:
    """Converged value, optimal policy, and diagnostics of the iteration.

    ``switching`` holds S_n - K'(c_lo); it is nonincreasing in n, and with
    linear cost its sign determines the optimal effort (>= 0 means c_hi after
    resolving exact indifference toward searching).  ``interval`` is the
    closed range of trigger indices consistent with optimality over all
    precisions; ``trigger`` is its upper end (the indifference-tolerant
    maximal trigger) when the cost is linear.
    """

    value: ValueFunction
    policy: Policy
    trigger: int | None
    interval: tuple[int, int] | None
    switching: np.ndarray
    deltas: tuple[float, ...]
    contraction_q: float

    @property
    def iterations(self) -> int:
        return len(self.deltas)


def reachable_floor(params: ModelParams) -> int:
    """Smallest precision an entrant can hold (minimum of the entry support)."""
    return int(params.pi.support()[0])


def trigger_interval(switching: np.ndarray, n_min: int) -> tuple[int, int]:
    """Range of trigger indices consistent with a nonincreasing switching sequence.

    Only precisions >= n_min are binding (others are unreachable).  A trigger
    N prescribes high effort strictly below N, so optimality requires the
    switching value to be > -tol on [n_min, N) and < tol on [N, inf), with
    tol = ``INDIFFERENCE_TOL``.  The returned (lo, hi) brackets every such N;
    indifference (|value| <= tol) widens the range on both sides.
    """
    t = switching[n_min:]
    above = np.flatnonzero(t > INDIFFERENCE_TOL)
    below = np.flatnonzero(t < -INDIFFERENCE_TOL)
    lo = int(above[-1]) + n_min + 1 if above.size else 0
    hi = int(below[0]) + n_min if below.size else switching.size
    if hi < lo:
        raise SolverError("switching sequence is not monotone: empty trigger range")
    return lo, hi


def solve_value(state: MarketState, params: ModelParams) -> BestResponse:
    """Value iteration to the best response against ``state``.

    Starts from the stop-searching continuation and iterates the operator
    until the sup-norm change, scaled by the contraction modulus, certifies a
    true error below ``VALUE_TOL``.

    With linear cost, a switching sequence that never crosses zero on the
    grid (searching pays at every precision) shows in the result as
    ``trigger > n_max``.  It is not logged: a scan or a bisection meets it on
    hundreds of markets, so callers count it.
    """
    fixed = _fixed_terms(state, params)
    c_bar = fixed.c_bar
    q = params.c_hi * c_bar / (params.c_hi * c_bar + params.r + params.eta_prime)
    stop = VALUE_TOL * (1.0 - q) / q if q > 0.0 else VALUE_TOL

    values = fixed.tail[: params.n_max + 1].copy()
    deltas: list[float] = []
    for _ in range(99_999):
        new, y = bellman_operator(values, fixed)
        delta = float(np.abs(new - values).max())
        deltas.append(delta)
        values = new
        if delta <= stop:
            break
    else:
        raise SolverError("value iteration failed to converge")

    cost = fixed.cost
    s = y - c_bar * values
    switching = s - cost.marginal_right(params.c_lo)

    trig = interval = None
    if cost.kind == "linear":
        lo, hi = trigger_interval(switching, 0)
        efforts = np.where(switching >= -INDIFFERENCE_TOL, params.c_hi, params.c_lo)
        trig, interval = hi, (lo, hi)
    else:
        # The last candidate that reaches the maximum: ties go to the larger effort.
        best, y_best = bellman_operator(values, fixed)
        efforts = np.full(best.size, params.c_lo)
        for (c, _, _), f in zip(fixed.terms, _objectives(fixed, y_best)):
            np.copyto(efforts, c, where=f == best)

    return BestResponse(
        value=ValueFunction(values=values, tail_value=_tail_values(params, 0.0)),
        policy=Policy(efforts),
        trigger=trig,
        interval=interval,
        switching=switching,
        deltas=tuple(deltas),
        contraction_q=q,
    )


# ---------------------------------------------------------------------------
# Upper bound on optimal triggers
# ---------------------------------------------------------------------------

def trigger_bounds(params: ModelParams) -> tuple[int, int]:
    """``(n_bar, scan_bound)``: the trigger bound and the highest trigger a scan visits.

    One more meeting at precision n gains at most the payoff gap 0 - u(n),
    where 0 is the least upper bound of the exit payoff u.  ``n_bar`` is the
    largest n >= 1 with

        c_hi * eta' * (r + eta') * (0 - u(n)) >= K'(c_lo),

    or 0 if none.  It bounds optimal triggers only when r + eta' >= 1: with
    faster discounting the switching sequence is bounded on the quotient
    scale c_hi * eta' / (r + eta'), so the scan bound is the larger of n_bar
    and the same largest n on that scale; the two scales agree at
    r + eta' = 1.  Comparisons carry a relative slack of 1e-12 so
    exact-equality boundaries are kept.  Zero marginal cost gives no finite
    bound, and both bounds are n_max.

    Both counts cover search at precisions >= 1 only.  Search at precision 0
    alone is trigger 1, and the same test on the gap 0 - u(0) bounds it:
    where entrants hold precision 0 and it passes on either scale, the scan
    bound is at least 1 (``n_bar`` may still be 0).
    """
    kp = params.effective_cost().marginal_right(params.c_lo)
    if kp <= 0.0:
        return params.n_max, params.n_max
    gap = -exit_utility(params, np.arange(params.n_max + 1))
    floor = kp - 1e-12 * max(1.0, kp)
    rate = params.c_hi * params.eta_prime
    # The gap falls with n, so the precisions that pass form a prefix of 0..n_max.
    product = rate * (params.r + params.eta_prime) * gap >= floor
    quotient = rate / (params.r + params.eta_prime) * gap >= floor
    bound = int(np.count_nonzero(product[1:]))
    top = max(bound, int(np.count_nonzero(quotient[1:])))
    if params.pi.weights[0] > 0.0 and (product[0] or quotient[0]):
        top = max(top, 1)
    return bound, top


# ---------------------------------------------------------------------------
# Minimal-search equilibrium test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalSearchReport:
    """Whether everyone searching at c_lo is an equilibrium, read from trigger 0.

    ``gain`` is S_floor = sum_m (V_{floor+m} - V_floor) nu_m at the reachable
    floor, under the best response to the everyone-at-c_lo market, and
    ``threshold`` is K'(c_lo).  ``is_equilibrium`` is trigger 0's fixed-point
    test, which holds when ``gain`` is at most ``threshold`` plus
    ``INDIFFERENCE_TOL``.  On equilibrium ``gain`` is the floor policy's
    marginal meeting value; off it, the optimal policy's.
    """

    gain: float
    threshold: float
    is_equilibrium: bool


def minimal_search_test(br: BestResponse, params: ModelParams) -> MinimalSearchReport:
    """Read the minimal-search verdict from ``br``, the best response to the trigger-0 market."""
    floor = reachable_floor(params)
    threshold = params.effective_cost().marginal_right(params.c_lo)
    return MinimalSearchReport(
        gain=threshold + float(br.switching[floor]),
        threshold=threshold,
        is_equilibrium=trigger_interval(br.switching, floor)[0] == 0,
    )
