"""Stationary precision distributions induced by a search-effort policy.

The cross-sectional measure mu over precisions solves the balance equation

    0 = eta * (pi_n - mu_n) + (nu * nu)_n - nu_n * nu(N),    nu_k = C_k mu_k,

where ``*`` is discrete self-convolution over precisions (two searchers of
precisions l and n-l meet and both land at n) and ``nu(N)`` is the total
effort mass.  Solving proceeds in two nested steps: given a trial average
effort, the weights follow run by run of precisions with equal effort (on
such a run the generating function of nu is a root of a quadratic, whose
coefficients come from power-series Newton doubling); the trial is then fixed
by Brent's method on the self-consistency gap.

Mass entering at precision 0 is supported: the convolution includes the
l = 0 and l = n terms, which moves the zero-precision balance from a linear
to a quadratic equation and shifts every denominator by the zero-bin effort.
With no entry mass at 0 the recursion reduces exactly to the classical form
with the convolution restricted to 1..n-1.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .model import ModelParams, Policy, PrecisionMeasure

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Market state container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MarketState:
    """A policy together with its stationary measure and average effort."""

    mu: PrecisionMeasure
    policy: Policy
    c_bar: float

    def nu(self) -> PrecisionMeasure:
        """Effort-weighted stationary measure C_k * mu_k (total mass = average effort).

        Tail mass past the grid does not search, so the result carries none.
        """
        return PrecisionMeasure(self.policy.efforts * self.mu.weights)


# ---------------------------------------------------------------------------
# Candidate measure for a trial average effort
# ---------------------------------------------------------------------------

def _square_block(a: np.ndarray, m: int, w: int) -> np.ndarray:
    """Coefficients m..m+w-1 of the square of the series a_1 x + ... + a_{m-1} x^{m-1}.

    ``a`` must be zero on indices m..m+w-1; costs O(m w), not O(m^2).
    """
    return np.correlate(a[1 : m + w], a[m - 1 :: -1], mode="valid")


def _solve_run(a: np.ndarray, s: int, e: int, gain: float, source: np.ndarray) -> None:
    """Fill a[s:e] with the root of a = gain * (source + a^2) on precisions s..e-1.

    ``a`` holds the effort-weighted weights below s and zeros from s on.  Newton
    doubling on power series: with a known below m and r = 1/(1 - 2 gain a)
    known below len(r), one step makes a exact below m + len(r), and the
    Newton step for the reciprocal doubles len(r).  Each round is a few
    truncated convolutions of nonnegative series, so no digits cancel.
    """
    m, r = s, np.ones(1)
    while True:
        w = min(r.size, e - m)
        g = gain * (source[m : m + w] + _square_block(a, m, w))
        a[m : m + w] = np.convolve(g, r[:w])[:w]
        m += w
        if m == e:
            return
        grow = min(r.size, e - m - r.size)
        if grow > 0:
            ar = np.convolve(a[: r.size + grow], r)[r.size : r.size + grow]
            r = np.concatenate((r, 2.0 * gain * np.convolve(r[:grow], ar)[:grow]))


def candidate_measure(
    c_bar: float,
    policy: Policy,
    params: ModelParams,
) -> PrecisionMeasure:
    """Solve the balance given a trial average effort ``c_bar``, run by run of equal effort.

    Precision 0 satisfies a quadratic (its searchers can only meet other
    zero-precision searchers without leaving the bin); the dynamically stable
    branch is the smaller root, taken as 2 eta pi_0 / (b + sqrt(disc)) so that
    a small zero-bin effort loses no digits to cancellation.  Precisions
    k >= 1 then satisfy

        mu_k = (eta pi_k + sum_{l=1}^{k-1} nu_l nu_{k-l}) / (eta + C_k (c_bar - 2 nu_0)),

    where the 2 nu_0 correction accounts for meetings with zero-precision
    searchers keeping the mover at its own precision plus the l=0/l=k
    convolution terms.  On a maximal run of precisions with one effort c > 0
    this makes the series A(x) = sum_{k>=1} nu_k x^k a root of the quadratic
    A = a (eta pi + A^2) with a = c / (eta + c (c_bar - 2 nu_0)), given the
    weights below the run; its coefficients follow by Newton doubling in
    about log2(run length) rounds.  A run with zero effort has nu = 0, and
    every mu_k then follows from one self-convolution of nu.

    Raises SolverError if the trial effort is infeasible for the
    zero-precision quadratic, a denominator degenerates or a weight diverges
    (overflows to a non-finite value); the first failing precision is named,
    as a per-precision recursion would.
    """
    if c_bar < 0:
        raise ValidationError(f"average effort must be nonnegative, got {c_bar}")
    eta = params.eta
    n_max = params.n_max
    C = policy.efforts
    pi = params.pi.weights

    mu = np.zeros(n_max + 1)

    c0 = C[0]
    if c0 > 0.0 and pi[0] > 0.0:
        b = eta + c0 * c_bar
        disc = b * b - 4.0 * c0 * c0 * eta * pi[0]
        if disc < 0.0:
            if disc > -1e-12 * b * b:
                disc = 0.0
            else:
                raise SolverError(
                    f"trial average effort {c_bar:.6g} infeasible for the zero-precision balance "
                    f"(discriminant {disc:.3e})"
                )
        mu[0] = 2.0 * eta * pi[0] / (b + math.sqrt(disc))
    else:
        mu[0] = pi[0]

    shift = c_bar - 2.0 * c0 * mu[0]
    source = eta * pi
    # Effort-weighted weights of precisions >= 1; index 0 stays zero.
    nu = np.zeros(n_max + 1)
    starts = [1, *(np.flatnonzero(C[2:] != C[1:-1]) + 2).tolist(), n_max + 1]
    stop = n_max + 1
    # Overflow runs on as inf/NaN; the first non-finite weight is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e in zip(starts[:-1], starts[1:]):
            c = C[s]
            if c == 0.0:
                continue
            den = eta + c * shift
            if den <= 1e-14:
                stop = s
                break
            _solve_run(nu, s, e, c / den, source)
        # pairs[k] = sum_{l=1}^{k-1} nu_l nu_{k-l}.  Convolving nu[1:] leaves out
        # the zero at index 0, whose product with an overflowed weight would
        # read NaN one precision early.
        pairs = np.concatenate(([0.0, 0.0], np.convolve(nu[1:], nu[1:])))
        mu[1:stop] = (source[1:stop] + pairs[1:stop]) / (eta + C[1:stop] * shift)
        bad = np.flatnonzero(~np.isfinite(mu[1:stop]))
    if bad.size:
        raise SolverError(f"candidate measure diverges at precision {bad[0] + 1} (trial {c_bar:.6g})")
    if stop <= n_max:
        raise SolverError(
            f"degenerate balance denominator at precision {stop} for trial effort {c_bar:.6g}"
        )
    return PrecisionMeasure(mu)


def average_effort(mu: PrecisionMeasure, policy: Policy) -> float:
    """Total effort mass of the measure (grid only)."""
    return float(np.dot(policy.efforts, mu.weights))


def balance_residual(
    weights: np.ndarray, policy: Policy, params: ModelParams
) -> tuple[np.ndarray, float]:
    """Stationary balance evaluated at arbitrary grid weights.

    Returns (residual over precisions 0..n_max, convolution overflow past the
    grid).  A stationary measure has residual ~ 0 and overflow equal to eta
    times its tail mass.
    """
    nu = policy.efforts * weights
    c_grid = float(nu.sum())
    conv = np.convolve(nu, nu)
    res = params.eta * (params.pi.weights - weights) + conv[: params.n_max + 1] - nu * c_grid
    overflow = float(conv[params.n_max + 1 :].sum())
    return res, overflow


def is_stable(policy: Policy, params: ModelParams) -> bool:
    """Sufficient condition eta >= C_tail * c_hi under which no mass escapes to infinity."""
    return params.eta >= policy.tail_effort() * params.c_hi - 1e-12


# ---------------------------------------------------------------------------
# Root finding on the self-consistency gap
# ---------------------------------------------------------------------------

# Acceptance bounds of a solved market: |g| at the root, the sup-norm balance
# residual and the deviation of total mass from 1.
ROOT_TOL = 1e-12
RESIDUAL_TOL = 1e-10
MASS_TOL = 1e-8

# The smallest tolerances scipy's brentq accepts: since g' >= 1, stopping at
# an x-tolerance of ROOT_TOL can still leave |g| above ROOT_TOL.
_XTOL = math.ulp(0.0)
_RTOL = 4.0 * np.finfo(float).eps
# brentq's default iteration cap; past it the last iterate is returned.
_MAXITER = 100


def _brent(f, xa: float, xb: float, fa: float, fb: float) -> float:
    """Root of ``f`` on [xa, xb] by Brent's method; fa = f(xa) and fb = f(xb) differ in sign.

    A step-for-step port of scipy's ``brentq`` (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4) at tolerances _XTOL and
    _RTOL, so it returns the same root after the same evaluations; the two
    known end values are not evaluated again.  It keeps the iterate xcur, the
    previous iterate xpre and the contrapoint xblk, where f has the other
    sign.  The arithmetic is numpy float64 with IEEE semantics (a -inf gap
    makes inf or NaN trial steps, which the acceptance test rejects in favour
    of bisection), and each expression keeps the C operand order so that it
    rounds the same way.
    """
    xpre, xcur, fpre, fcur = np.float64(xa), np.float64(xb), np.float64(fa), np.float64(fb)
    xblk = fblk = spre = scur = np.float64(0.0)
    with np.errstate(all="ignore"):
        for _ in range(_MAXITER):
            # brentq compares sign bits; for nonzero, non-NaN values that is (f < 0).
            if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = (_XTOL + _RTOL * abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            if fcur == 0 or abs(sbis) < delta:
                break
            interpolate = abs(spre) > delta and abs(fcur) < abs(fpre)
            if interpolate:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic extrapolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if interpolate and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
            xpre, fpre = xcur, fcur
            xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
            fcur = np.float64(f(float(xcur)))
    return float(xcur)


def _feasibility_floor(policy: Policy, params: ModelParams) -> float:
    """Smallest trial average effort with a real zero-precision quadratic root."""
    c0 = policy.efforts[0]
    p0 = params.pi.weights[0]
    if c0 <= 0.0 or p0 <= 0.0:
        return 0.0
    # Divide only a positive numerator: then c0 > eta / (2 sqrt(eta p0)), and
    # a subnormal c0 cannot overflow the quotient.
    num = 2.0 * c0 * math.sqrt(params.eta * p0) - params.eta
    return num / c0 if num > 0.0 else 0.0


# A full scan visits every trigger in the same descending order each time, so
# an LRU smaller than one scan's markets would never hit; 1024 covers every
# trigger of a scan up to n_max = 1023.  An existence walk visits a descending
# subset of the same markets (they do not depend on the cost slope), so the
# walks of one bisection mostly re-visit markets an earlier walk solved.
_MEMO_SIZE = 1024
_memo: OrderedDict[bytes, tuple[PrecisionMeasure, float]] = OrderedDict()


def _market_key(policy: Policy, params: ModelParams) -> bytes:
    """Digest of everything the stationary solve reads from its inputs."""
    scalars = (float(params.eta), float(params.c_hi), int(params.n_max))
    h = hashlib.blake2b(repr(scalars).encode(), digest_size=16)
    h.update(params.pi.weights.tobytes())
    h.update(policy.efforts.tobytes())
    return h.digest()


def solve_stationary(policy: Policy, params: ModelParams) -> MarketState:
    """Stationary market state under ``policy``.

    Finds the average effort as the root of g(x) = x - nu(N)(x), where nu(N)(x)
    is the total effort mass of the candidate measure at trial effort x; g is
    strictly increasing because every candidate weight is decreasing in the
    trial effort.  Brent's method solves it to machine precision on [floor,
    max(c_hi, floor)], the floor being the smallest trial with a real
    zero-precision balance, and the root must meet |g| <= ROOT_TOL; a trial
    whose weights diverge counts as g = -inf.  The solved state is validated
    against the balance residual and, in the stable regime eta >= C_tail *
    c_hi, against mass conservation.

    Solves are memoized per process (least recently used, ``_MEMO_SIZE``
    markets) on what the solve reads: eta, c_hi, n_max, the entry weights and
    the efforts.  Cost, r, eta', rho, c_lo, public signals and subsidy enter
    only the best response, so markets differing only in them share one
    solve.  The policy bounds are checked on every call, a hit returns the
    caller's own ``policy`` with the stored measure and average effort, and a
    failed solve is not stored.  The unstable-regime warning (mass < 1) is
    therefore logged once per market per process.
    """
    policy.validate_bounds(params)
    key = _market_key(policy, params)
    hit = _memo.get(key)
    if hit is not None:
        _memo.move_to_end(key)
    else:
        hit = _memo[key] = _solve(policy, params)
        if len(_memo) > _MEMO_SIZE:
            _memo.popitem(last=False)
    mu, c_bar = hit
    return MarketState(mu=mu, policy=policy, c_bar=c_bar)


def _solve(policy: Policy, params: ModelParams) -> tuple[PrecisionMeasure, float]:
    """Uncached stationary solve: (measure with tail mass, average effort)."""
    # The candidate measure of every feasible trial, so the root's is not computed again.
    measures: dict[float, PrecisionMeasure] = {}

    def gap(x: float) -> float:
        # An infeasible trial (no real zero-bin root, an exploding bin
        # denominator or diverging weights) means the candidate effort mass
        # blows past x, so the gap is effectively -inf and the root lies above.
        try:
            measures[x] = candidate_measure(x, policy, params)
        except SolverError:
            return -math.inf
        return x - average_effort(measures[x], policy)

    lo = _feasibility_floor(policy, params)
    # Any root is a grid effort mass, at most c_hi times a grid mass <= 1, so g(c_hi) >= 0.
    hi = max(params.c_hi, lo)
    g_lo = gap(lo)
    if g_lo > ROOT_TOL:
        raise SolverError(
            f"no stationary average effort: the self-consistency gap is already positive "
            f"({g_lo:.3e}) at the feasibility floor {lo:.6g}"
        )
    root = lo
    if g_lo < -ROOT_TOL:
        g_hi = gap(hi)
        root = hi
        if g_hi > ROOT_TOL:
            root = _brent(gap, lo, hi, g_lo, g_hi)

    # Also rejects a bracket with no sign change, whose root is then hi.  An
    # infeasible root was never stored, and raises here as it did in gap.
    mu_grid = measures[root] if root in measures else candidate_measure(root, policy, params)
    g_root = root - average_effort(mu_grid, policy)
    if abs(g_root) > ROOT_TOL:
        raise SolverError(f"no stationary average effort: |g({root:.12g})| = {abs(g_root):.3e}")
    res, overflow = balance_residual(mu_grid.weights, policy, params)
    sup_res = float(np.max(np.abs(res)))
    if sup_res > RESIDUAL_TOL:
        raise SolverError(f"stationary balance residual {sup_res:.3e} exceeds tolerance")

    tail_mass = overflow / params.eta
    mu = PrecisionMeasure(mu_grid.weights, tail_mass)

    mass = mu.total_mass()
    if abs(mass - 1.0) > MASS_TOL:
        if is_stable(policy, params):
            raise SolverError(
                f"stationary mass {mass:.10f} deviates from 1 in the stable regime"
            )
        logger.warning(
            "stationary mass %.6f < 1: replacement intensity below the escape threshold",
            mass,
        )
    return mu, root


# ---------------------------------------------------------------------------
# Stochastic-dominance comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FosdReport:
    """Tail-sum comparison of two measures on the same grid.

    ``a_dominates`` means every tail sum of a is >= the matching tail sum of b
    (within tolerance); ``first_violation_a`` is the smallest precision where
    that fails, if any.
    """

    a_dominates: bool
    b_dominates: bool
    first_violation_a: int | None
    first_violation_b: int | None

    @property
    def relation(self) -> str:
        if self.a_dominates and self.b_dominates:
            return "equal"
        if self.a_dominates:
            return "a"
        if self.b_dominates:
            return "b"
        return "crossing"


def fosd_compare(a: PrecisionMeasure, b: PrecisionMeasure, tol: float = 1e-12) -> FosdReport:
    """First-order comparison by tail sums over every precision threshold."""
    if a.weights.size != b.weights.size:
        raise ValidationError("measures live on different grids")
    diff = a.tail_sums() - b.tail_sums()
    viol_a = np.flatnonzero(diff < -tol)
    viol_b = np.flatnonzero(diff > tol)
    return FosdReport(
        a_dominates=viol_a.size == 0,
        b_dominates=viol_b.size == 0,
        first_violation_a=int(viol_a[0]) if viol_a.size else None,
        first_violation_b=int(viol_b[0]) if viol_b.size else None,
    )
