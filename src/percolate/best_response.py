"""Single-agent best response to a stationary market.

An agent of precision n searching at effort c against a market with
effort-weighted measure nu (total mass c_bar) meets partners at rate
c * c_bar, jumps by the partner's precision drawn from nu / c_bar, exits at
rate eta' collecting u(n), discounts at r, and pays flow cost K(c).  The
value solves

    V_n = max_c ( eta' u_n - K(c) + c * sum_m V_{n+m} nu_m ) / (c c_bar + r + eta'),

a sup-norm contraction with modulus c_hi c_bar / (c_hi c_bar + r + eta').
Beyond the grid the value is closed by the stop-searching continuation
(eta' u(n) - K(c_lo)) / (r + eta').

With linear cost the inner maximization is bang-bang and the optimal policy
is a trigger: effort c_hi exactly while the switching sequence
S_n - K'(c_lo), with S_n = sum_{m>=1} (V_{n+m} - V_n) nu_m, stays positive.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import ModelParams, Policy, ValueFunction, exit_utility
from .stationary import MarketState, solve_stationary

logger = logging.getLogger(__name__)

# True-error target of value iteration (the stop is scaled by the contraction
# modulus) and the half-width of the band around zero read as exact
# indifference in the switching sequence.
VALUE_TOL = 1e-10
INDIFFERENCE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Bellman operator
# ---------------------------------------------------------------------------

def _tail_values(params: ModelParams) -> np.ndarray:
    """Stop-searching continuation (eta' u(j) - K(c_lo)) / (r + eta') for j = 0..2 n_max."""
    j = np.arange(2 * params.n_max + 1)
    u = exit_utility(params, j)
    k_lo = params.effective_cost().cost(params.c_lo)
    return (params.eta_prime * u - k_lo) / (params.r + params.eta_prime)


def _padded(values: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Grid values extended past the grid by the stop-searching continuation."""
    return np.concatenate([values, tail[values.size :]])


def bellman_operator(
    values: np.ndarray,
    state: MarketState,
    params: ModelParams,
    tail: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One application of the best-response operator.

    Returns (updated values, jump expectation Y, maximizing efforts) where
    Y_n = sum_{m>=0} V_{n+m} nu_m uses the tail continuation past the grid.
    Ties in the inner maximization resolve to the larger effort.
    """
    if tail is None:
        tail = _tail_values(params)
    w = state.policy.efforts * state.mu.weights
    c_bar = float(w.sum())
    u = exit_utility(params, np.arange(params.n_max + 1))
    cost = params.effective_cost()

    y = np.correlate(_padded(values, tail), w, mode="valid")
    best = np.full(params.n_max + 1, -np.inf)
    arg = np.full(params.n_max + 1, params.c_lo)
    for c in cost.candidate_efforts(params.c_lo, params.c_hi):
        f = (params.eta_prime * u - cost.cost(float(c)) + c * y) / (
            c * c_bar + params.r + params.eta_prime
        )
        arg = np.where(f >= best, float(c), arg)
        np.maximum(f, best, out=best)
    return best, y, arg


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

    @property
    def final_sup_change(self) -> float:
        return self.deltas[-1]


def trigger_interval(
    switching: np.ndarray,
    n_min: int,
    tol: float,
) -> tuple[int, int]:
    """Range of trigger indices consistent with a nonincreasing switching sequence.

    Only precisions >= n_min are binding (others are unreachable).  A trigger
    N prescribes high effort strictly below N, so optimality requires the
    switching value to be > -tol on [n_min, N) and < tol on [N, inf).  The
    returned (lo, hi) brackets every such N; indifference (|value| <= tol)
    widens the range on both sides.
    """
    t = switching[n_min:]
    above = np.flatnonzero(t > tol)
    below = np.flatnonzero(t < -tol)
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
    """
    tail = _tail_values(params)
    w = state.policy.efforts * state.mu.weights
    c_bar = float(w.sum())
    q = params.c_hi * c_bar / (params.c_hi * c_bar + params.r + params.eta_prime)
    stop = VALUE_TOL * (1.0 - q) / q if q > 0.0 else VALUE_TOL

    values = tail[: params.n_max + 1].copy()
    deltas: list[float] = []
    y = np.zeros(params.n_max + 1)
    for it in range(1, 100_000):
        new, y, _ = bellman_operator(values, state, params, tail)
        delta = float(np.max(np.abs(new - values)))
        deltas.append(delta)
        values = new
        if delta <= stop:
            break
    else:
        raise SolverError("value iteration failed to converge")

    cost = params.effective_cost()
    s = y - c_bar * values
    switching = s - cost.marginal_right(params.c_lo)

    if cost.kind == "linear":
        lo, hi = trigger_interval(switching, 0, INDIFFERENCE_TOL)
        efforts = np.where(switching >= -INDIFFERENCE_TOL, params.c_hi, params.c_lo)
        policy = Policy(efforts, trigger=hi if hi <= params.n_max else None)
        trig: int | None = hi
        interval: tuple[int, int] | None = (lo, hi)
        if hi > params.n_max:
            logger.warning("switching sequence never crosses zero on the grid")
    else:
        policy = Policy(bellman_operator(values, state, params, tail)[2])
        trig = None
        interval = None

    # 0.0 - K rather than -K: a zero cost must give +0.0, not -0.0.
    vf = ValueFunction(values=values, tail_value=float(
        (0.0 - cost.cost(params.c_lo)) / (params.r + params.eta_prime)
    ))
    return BestResponse(
        value=vf,
        policy=policy,
        trigger=trig,
        interval=interval,
        switching=switching,
        deltas=tuple(deltas),
        contraction_q=q,
    )


# ---------------------------------------------------------------------------
# Upper bound on optimal triggers
# ---------------------------------------------------------------------------

def _payoff_bound(params: ModelParams, scale: float) -> int:
    """Largest precision n >= 1 with -scale * u(n) >= K'(c_lo), else 0.

    ``scale`` bounds the payoff of one meeting per unit payoff gap.
    Comparisons carry a relative slack of 1e-12 so exact-equality boundaries
    are kept.  Zero marginal cost gives no finite bound and returns n_max.
    """
    kp = params.effective_cost().marginal_right(params.c_lo)
    if kp <= 0.0:
        return params.n_max
    n = np.arange(1, params.n_max + 1)
    gap = -exit_utility(params, n)
    ok = np.flatnonzero(scale * gap >= kp - 1e-12 * max(1.0, kp))
    return int(n[ok[-1]]) if ok.size else 0


def n_bar(params: ModelParams) -> int:
    """Largest precision at which searching can still pay.

    Bounds the one-meeting gain by the full remaining payoff range and the
    meeting rate by c_hi, giving the condition

        c_hi * eta' * (r + eta') * (0 - u(n)) >= K'(c_lo),

    where 0 is the least upper bound of the exit payoff u.

    Returns the largest n satisfying it (0 if none).
    """
    if params.effective_cost().marginal_right(params.c_lo) <= 0.0:
        warnings.warn("marginal cost at c_lo is zero: no finite trigger bound", stacklevel=2)
    return _payoff_bound(params, params.c_hi * params.eta_prime * (params.r + params.eta_prime))


# ---------------------------------------------------------------------------
# Minimal-search equilibrium test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalSearchReport:
    """Marginal value of search at the everyone-at-c_lo market.

    ``gain`` is c_lo * sum_m (V_{1+m} - V_1) mu0_m, the marginal meeting value
    at precision 1 under the minimal-effort market; the minimal policy is an
    equilibrium exactly when the marginal cost K'(c_lo) covers it.
    """

    gain: float
    threshold: float
    is_equilibrium: bool
    c_bar: float


def minimal_search_test(params: ModelParams) -> MinimalSearchReport:
    """Check whether everyone searching at c_lo is an equilibrium.

    Solves the constant-c_lo market, computes its value function by a
    geometric (Neumann) iteration of the jump expectation truncated when the
    increment falls below 1e-14, and compares the marginal meeting gain at
    precision 1 against the marginal cost.
    """
    c0 = params.c_lo
    state = solve_stationary(Policy.constant(c0, params), params)
    w = state.mu.weights  # probability weights: constant effort factors out
    cost = params.effective_cost()
    denom = params.r + params.eta_prime + c0 * c0
    gain_factor = c0 * c0 / denom
    u = exit_utility(params, np.arange(params.n_max + 1))
    f = (params.eta_prime * u - cost.cost(c0)) / denom
    tail = _tail_values(params)

    values = f.copy()
    for _ in range(100_000):
        new = f + gain_factor * np.correlate(_padded(values, tail), w, mode="valid")
        delta = float(np.max(np.abs(new - values)))
        values = new
        if delta < 1e-14:
            break
    else:
        raise SolverError("minimal-search value iteration failed to converge")

    padded = _padded(values, tail)
    gain = c0 * float(np.dot(padded[2 : params.n_max + 2] - values[1], w[1:]))
    threshold = cost.marginal_right(c0)
    return MinimalSearchReport(
        gain=gain,
        threshold=threshold,
        is_equilibrium=threshold >= gain - 1e-12 * max(1.0, threshold),
        c_bar=state.c_bar,
    )
