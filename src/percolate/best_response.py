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
from .stationary import MarketState, solve_stationary

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
    w = state.policy.efforts * state.mu.weights
    c_bar = float(w.sum())
    u = exit_utility(params, np.arange(2 * params.n_max + 1))
    tail = _tail_values(params, u)
    u = u[: params.n_max + 1]
    cost = params.effective_cost()
    terms = tuple(
        (c, params.eta_prime * u - cost.cost(float(c)), c * c_bar + params.r + params.eta_prime)
        for c in cost.candidate_efforts(params.c_lo, params.c_hi)
    )
    return _FixedTerms(tail, w, c_bar, cost, terms, np.empty(tail.size))


def bellman_operator(
    values: np.ndarray,
    state: MarketState,
    params: ModelParams,
    fixed: _FixedTerms | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One application of the best-response operator.

    Returns (updated values, jump expectation Y, maximizing efforts) where
    Y_n = sum_{m>=0} V_{n+m} nu_m uses the tail continuation past the grid,
    floored at V_{n_max}.  Ties in the inner maximization resolve to the
    larger effort.  ``fixed`` holds the terms that do not depend on
    ``values``; without it they are built from ``state`` and ``params``.
    """
    if fixed is None:
        fixed = _fixed_terms(state, params)
    n = values.size
    pad = fixed.pad
    pad[:n] = values
    np.maximum(fixed.tail[n:], values[-1], out=pad[n:])
    y = np.correlate(pad, fixed.w, mode="valid")
    # The first candidate is c_lo: it starts the running maximum.
    (c_lo, num, den), *rest = fixed.terms
    best = (num + c_lo * y) / den
    arg = np.full(y.size, c_lo)
    for c, num, den in rest:
        f = (num + c * y) / den
        np.copyto(arg, c, where=f >= best)
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
        new, y, _ = bellman_operator(values, state, params, fixed)
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

    if cost.kind == "linear":
        lo, hi = trigger_interval(switching, 0)
        efforts = np.where(switching >= -INDIFFERENCE_TOL, params.c_hi, params.c_lo)
        policy = Policy(efforts)
        trig: int | None = hi
        interval: tuple[int, int] | None = (lo, hi)
    else:
        policy = Policy(bellman_operator(values, state, params, fixed)[2])
        trig = None
        interval = None

    return BestResponse(
        value=ValueFunction(values=values, tail_value=_tail_values(params, 0.0)),
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
    """
    kp = params.effective_cost().marginal_right(params.c_lo)
    if kp <= 0.0:
        return params.n_max, params.n_max
    gap = -exit_utility(params, np.arange(1, params.n_max + 1))
    floor = kp - 1e-12 * max(1.0, kp)
    rate = params.c_hi * params.eta_prime
    # The gap falls with n, so the precisions that pass form a prefix of 1..n_max.
    bound = int(np.count_nonzero(rate * (params.r + params.eta_prime) * gap >= floor))
    quotient = int(np.count_nonzero(rate / (params.r + params.eta_prime) * gap >= floor))
    return bound, max(bound, quotient)


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

    Solves the constant-c_lo market and values the floor policy against it
    with ``solve_value`` restricted to the single effort c_lo (c_hi = c_lo),
    then compares the marginal meeting gain at precision 1 against the
    marginal cost.  A zero floor meets nobody, so its gain is 0 without a
    value solve.
    """
    c0 = params.c_lo
    state = solve_stationary(Policy.constant(c0, params), params)
    gain = 0.0
    if c0 > 0.0:
        values = solve_value(state, params.with_(c_hi=c0)).value.values
        # V_{1+m} for m = 1..n_max; V_{n_max+1} is padded as the operator pads it.
        past = np.maximum(_tail_values(params, exit_utility(params, params.n_max + 1)), values[-1])
        jumped = np.append(values[2:], past)
        gain = c0 * float(np.dot(jumped - values[1], state.mu.weights[1:]))
    threshold = params.effective_cost().marginal_right(c0)
    return MinimalSearchReport(
        gain=gain,
        threshold=threshold,
        is_equilibrium=threshold >= gain - 1e-12 * max(1.0, threshold),
        c_bar=state.c_bar,
    )
