"""Stationary precision distributions induced by a search-effort policy.

The cross-sectional measure mu over precisions solves the balance equation

    0 = eta * (pi_n - mu_n) + (nu * nu)_n - nu_n * nu(N),    nu_k = C_k mu_k,

where ``*`` is discrete self-convolution over precisions (two searchers of
precisions l and n-l meet and both land at n) and ``nu(N)`` is the total
effort mass.  Solving proceeds in two nested steps: given a trial shift
s = c_bar - 2 nu_0, which every denominator eta + C_k s reads, the weights
follow run by run of precisions with equal effort (on such a run the
generating function of nu is a root of a quadratic, whose coefficients come
from power-series Newton doubling); s is then fixed by Brent's method on the
self-consistency gap, which rises strictly in s: one stationary state.

On a market whose efforts on 1..n_max are c below a trigger n <=
_CLOSED_FORM_MAX_TRIGGER and c2 from n on (trigger and constant policies),
the gap needs no candidate measure: a trial costs one column of a table
S(n, m) built once per entry distribution, one dot product with Catalan
weights and, for c2 > 0, one quadratic, whose root also counts the mass past
n_max; kernel calls at the root shift that away.  Larger triggers (the O(n^3)
table costs more than the trials it saves), S(n, m) that underflow and
shifted roots that do not settle keep the kernel gap; every acceptance check
reads the root's measure, solved run-wise.

Mass entering at precision 0 is supported: the convolution includes the
l = 0 and l = n terms, which makes the zero-precision balance a quadratic
with one positive root at every shift.  With no entry mass at 0, s = c_bar
and the recursion is the classical one over 1..n-1.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .model import ModelParams, Policy, PrecisionMeasure


# ---------------------------------------------------------------------------
# Market state container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MarketState:
    """A policy together with its stationary measure and average effort.

    ``gap_evals`` counts the solve's ``candidate_measure`` calls, the root's
    included; closed-form trials are not counted.  A memo hit carries the
    stored count.
    """

    mu: PrecisionMeasure
    policy: Policy
    c_bar: float
    gap_evals: int = 0

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


def _zero_bin(shift: float, c0: float, p0: float, eta: float) -> float:
    """Weight of precision 0: the positive root of c0^2 mu^2 + b mu = eta p0, b = eta + c0 shift.

    Each sign of b has its own form of the root, a sum of terms of one sign.
    """
    if not (c0 > 0.0 and p0 > 0.0):
        return float(p0)
    b = eta + c0 * shift
    root = math.sqrt(b * b + 4.0 * c0 * c0 * eta * p0)
    return float(2.0 * eta * p0 / (b + root) if b >= 0.0 else (root - b) / (2.0 * c0 * c0))


def candidate_measure(
    shift: float,
    policy: Policy,
    params: ModelParams,
) -> PrecisionMeasure:
    """Solve the balance given a trial ``shift`` = c_bar - 2 nu_0, run by run of equal effort.

    Precision 0 satisfies C_0^2 mu_0^2 + (eta + C_0 shift) mu_0 = eta pi_0
    (its searchers meet zero-precision searchers without leaving the bin).
    Precisions k >= 1 then satisfy

        mu_k = (eta pi_k + sum_{l=1}^{k-1} nu_l nu_{k-l}) / (eta + C_k shift),

    where the shift's 2 nu_0 accounts for meetings with zero-precision
    searchers keeping the mover at its own precision plus the l=0/l=k
    convolution terms.  On a maximal run of precisions with one effort c > 0
    this makes the series A(x) = sum_{k>=1} nu_k x^k a root of the quadratic
    A = a (eta pi + A^2) with a = c / (eta + c shift), given the weights below
    the run; its coefficients follow by Newton doubling in about
    log2(run length) rounds.  A run with zero effort has nu = 0, and every
    mu_k then follows from one self-convolution of nu.  A run that no entry
    and no pair reaches keeps zero weight, whatever its denominator.

    Raises SolverError if a reached denominator degenerates or a weight
    diverges (overflows to a non-finite value); the first failing precision
    is named, as a per-precision recursion would.
    """
    if not math.isfinite(shift):
        raise ValidationError(f"trial shift must be finite, got {shift}")
    eta = params.eta
    n_max = params.n_max
    C = policy.efforts
    pi = params.pi.weights

    mu = np.zeros(n_max + 1)
    mu[0] = _zero_bin(shift, C[0], pi[0], eta)
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
                # The first precision of the run that entry or a pair reaches.
                reached = np.flatnonzero(source[s:e] + _square_block(nu, s, e - s))
                if reached.size:
                    stop = s + int(reached[0])
                    break
                continue
            _solve_run(nu, s, e, c / den, source)
        # pairs[k] = sum_{l=1}^{k-1} nu_l nu_{k-l}.  Convolving nu[1:] leaves out
        # the zero at index 0, whose product with an overflowed weight would
        # read NaN one precision early.
        pairs = np.concatenate(([0.0, 0.0], np.convolve(nu[1:], nu[1:])))
        num = source[1:stop] + pairs[1:stop]
        # An unreached precision keeps +0.0, even over a denominator <= 0.
        np.divide(num, eta + C[1:stop] * shift, out=mu[1:stop], where=num != 0.0)
        bad = np.flatnonzero(~np.isfinite(mu[1:stop]))
    if bad.size:
        raise SolverError(f"candidate measure diverges at precision {bad[0] + 1} (s {shift:.6g})")
    if stop <= n_max:
        raise SolverError(
            f"degenerate balance denominator at precision {stop} for trial shift {shift:.6g}"
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


def effort_derivative(state: MarketState, params: ModelParams, direction: np.ndarray) -> np.ndarray:
    """Derivative of the stationary grid weights as the efforts move along ``direction``.

    Implicit differentiation of the balance R(mu, C) = 0 that
    ``balance_residual`` evaluates.  With nu = C mu and D = dR/dnu,

        D_kl = 2 nu_{k-l} [k >= l] - nu_k - delta_kl nu(N),

    the weights move by dmu solving J dmu = -D (mu dC), J = D diag(C) - eta I.
    The weight of a precision without effort appears in its own row alone, so
    the system is solved on the precisions with positive effort, and each
    other weight follows from its own row, where J holds -eta.
    Memory is O(n_max |support|).  Raises SolverError if J is singular there.
    """
    mu, efforts, eta = state.mu.weights, state.policy.efforts, params.eta
    nu = efforts * mu
    c_grid = float(nu.sum())
    # D (mu dC) without forming D, convolving nu with mu dC cut after its last nonzero.
    w = mu * direction
    w = w[: np.flatnonzero(w)[-1] + 1] if np.any(w) else w[:1]
    rhs = -(2.0 * np.convolve(nu, w)[: nu.size] - nu * float(w.sum()))
    rhs[: w.size] += c_grid * w
    support = np.flatnonzero(efforts > 0.0)
    jac = np.zeros((nu.size, support.size))  # the columns of J on the support
    for j, l in enumerate(support):
        jac[l:, j] = 2.0 * nu[: nu.size - l]
        jac[l, j] -= c_grid
    jac -= nu[:, None]
    jac *= efforts[support]
    jac[support, np.arange(support.size)] -= eta
    try:
        d_support = np.linalg.solve(jac[support], rhs[support])
    except np.linalg.LinAlgError as exc:
        raise SolverError("stationary balance is singular in the efforts") from exc
    d_mu = (jac @ d_support - rhs) / eta
    d_mu[support] = d_support
    return d_mu


def is_stable(policy: Policy, params: ModelParams) -> bool:
    """Sufficient condition eta >= C_tail * c_hi under which no mass escapes to infinity.

    Below it search carries mass past any grid: the stationary solve keeps
    unit mass, with that share in ``tail_mass``, which does not vanish as
    n_max grows.
    """
    return params.eta >= policy.tail_effort() * params.c_hi - 1e-12


# ---------------------------------------------------------------------------
# Closed-form effort mass of a trigger market
# ---------------------------------------------------------------------------

# The largest trigger that takes the closed form.  Its table costs O(n^3) time
# and n^2 floats once per pi; past this size building it costs more than the
# ten or so kernel trials of one solve.  Measured on a 2-core Xeon, a cold
# solve at trigger = n_max = 128 takes 1.7-2.5 ms with the table against
# 2.5-2.6 ms without; at 160 the table already loses, at 256 by 1.5-2.7x.
_CLOSED_FORM_MAX_TRIGGER = 128

# The table of S(n, m) for one pi at a time: (pi bytes, table).  It depends on
# pi alone, so every trigger of a scan, every existence walk and every
# bisection cost slope reads the same table; it is rebuilt for a new pi or a
# trigger past its size, and holds rows and columns only up to the largest trigger.
_run_table: tuple[bytes, np.ndarray] | None = None


def _run_sums(pi: np.ndarray, n: int) -> np.ndarray:
    """S(n, m) for m = 0..n-2, for a trigger 2 <= n <= _CLOSED_FORM_MAX_TRIGGER.

    S(n, m) = sum_{k<n} [x^k] pi'(x)^(m+1), with pi' = pi without its zero
    bin; it vanishes for m >= n-1.  Column k of the table holds S(k+1, .).
    """
    global _run_table
    key = pi.tobytes()
    if _run_table is None or _run_table[0] != key or _run_table[1].shape[1] < n:
        p = pi[:n].copy()
        p[0] = 0.0
        powers = np.zeros((n - 1, n))  # powers[m, k] = [x^k] pi'(x)^(m+1)
        powers[0] = p
        for m in range(1, n - 1):
            powers[m, m + 1 :] = np.convolve(powers[m - 1, m:], p[1 : n - m])[: n - m - 1]
        _run_table = (key, np.cumsum(powers, axis=1, out=powers))
    return _run_table[1][: n - 1, n - 1]


def _closed_form_mass(policy: Policy, params: ModelParams):
    """Effort mass above precision 0 of the candidate measure as a function of the shift, or None.

    Defined when the efforts on 1..n_max are c on [1, n) and c2 >= 0 on
    [n, n_max] with n <= _CLOSED_FORM_MAX_TRIGGER (a constant policy is n = 1),
    in the stable regime if c2 > 0.  On the run [1, n) the effort-weighted
    series solves A = a (eta pi' + A^2) with
    a = c / (eta + c shift), so A = sum_m Cat_m a^(2m+1) (eta pi')^(m+1): its
    mass is A1 = eta a T_0 and the mass of A^2 below n is Q = eta T_1, where
    T_j = sum_{m>=j} Cat_m (eta a^2)^m S(n, m) (Duffie & Manso 2007).  Summed
    over precisions >= n, where every product with run 1 lands, the recursion
    makes run 2's mass X the stable root of a2 X^2 - B X + C = 0 with
    a2 = c2 / (eta + c2 shift), B = 1 - 2 a2 A1 and C = a2 (eta pi_{>=n} +
    A1^2 - Q).  That is the mass on the infinite grid, above the kernel's by
    the effort mass past n_max.  A run that nothing reaches has no mass, as in
    ``candidate_measure``; a reached run's degenerate denominator, no positive
    root X or a non-finite sum makes the mass +inf.
    """
    e = policy.efforts[1:]
    n = 1 + int(np.argmax(e != e[0]))  # 1 if e is constant
    c, c2 = float(e[0]), float(e[-1])
    if (n > _CLOSED_FORM_MAX_TRIGGER or np.any(e[n - 1 :] != c2)
            or (c2 > 0.0 and not is_stable(policy, params))):
        return None
    pi, eta = params.pi.weights, params.eta
    tail = float(pi[n:].sum())
    # pi'^(m+1) starts at x^(k1 (m+1)), k1 the lowest precision of pi', so
    # S(n, m) > 0 exactly for m < rows = (n-1) // k1.
    lowest = np.flatnonzero(pi[1:n])
    rows = (n - 1) // (int(lowest[0]) + 1) if lowest.size else 0
    sums = _run_sums(pi, n)[:rows] if rows else np.zeros(1)
    # S(n, m) decreases in m.  If its last positive value underflowed (a small
    # pi' to a high power), terms the kernel keeps would be lost or rounded
    # coarsely, so such a market keeps the kernel gap.
    if rows and sums[-1] < np.finfo(float).tiny:
        return None
    # S(n, m) = mant_m 2^(expo_m).  The exponent steps ride in the Catalan
    # ratios Cat_{m+1} / Cat_m as exact powers of two, so the running product
    # tracks the terms themselves and overflows only when a term does, while
    # every term rounds as Cat_m (eta a^2)^m S(n, m) would.
    mant, expo = np.frexp(sums)
    scale = 2.0 ** int(expo[0])  # exact: S(n, 0) is normal
    m = np.arange(sums.size - 1)
    ratios = np.ldexp(2.0 * (2 * m + 1) / (m + 2), np.diff(expo))

    def mass(shift: float) -> float:
        den, den2 = eta + c * shift, eta + c2 * shift
        run = higher = 0.0  # nothing reaches run 1 if pi' vanishes below n
        if rows:
            if c > 0.0 and den <= 1e-14:
                return math.inf
            a = c / den
            with np.errstate(over="ignore", invalid="ignore"):
                catalan = np.cumprod(ratios * (eta * a * a))
                higher = float(np.dot(catalan, mant[1:])) * scale
                # The m = 0 term is added last: inside the dot product it would
                # change np.dot's summation order and move roots by a few ulps.
                # The outer a as c / den, as the kernel's last division makes it.
                run = float(c * (eta * (mant[0] * scale + higher)) / den)
        total = run
        if c2 > 0.0 and (tail > 0.0 or run > 0.0):
            if den2 <= 1e-14:
                return math.inf
            a2 = c2 / den2
            b = 1.0 - 2.0 * a2 * run
            q = a2 * (eta * tail + run * run - eta * higher)
            disc = b * b - 4.0 * a2 * q
            if not (b > 0.0 and disc >= 0.0):
                return math.inf
            total += 2.0 * q / (b + math.sqrt(disc))
        return total if math.isfinite(total) else math.inf

    return mass


# ---------------------------------------------------------------------------
# Root finding on the self-consistency gap
# ---------------------------------------------------------------------------

# Acceptance bounds of a solved market: |g| at the root relative to max(1, c_bar),
# the sup-norm balance residual relative to max(1, eta) and the deviation of
# total mass (grid plus tail) from 1.
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


# A full scan visits every trigger in the same descending order each time, so
# an LRU smaller than one scan's markets would never hit; 1024 covers every
# trigger of a scan up to n_max = 1023.  An existence walk visits a descending
# subset of the same markets (they do not depend on the cost slope), so the
# walks of one bisection mostly re-visit markets an earlier walk solved.
_MEMO_SIZE = 1024
_memo: OrderedDict[bytes, tuple[PrecisionMeasure, float, int]] = OrderedDict()


def _market_key(policy: Policy, params: ModelParams) -> bytes:
    """Digest of everything the stationary solve reads from its inputs."""
    scalars = (float(params.eta), float(params.c_hi), int(params.n_max))
    h = hashlib.blake2b(repr(scalars).encode(), digest_size=16)
    h.update(params.pi.weights.tobytes())
    h.update(policy.efforts.tobytes())
    return h.digest()


def solve_stationary(policy: Policy, params: ModelParams) -> MarketState:
    """Stationary market state under ``policy``.

    Finds the shift s = c_bar - 2 C_0 mu_0 as the root of g(s) = c_bar(s) -
    nu(N)(s), with mu_0(s) the positive root of the zero-bin quadratic,
    c_bar(s) = s + 2 C_0 mu_0(s) and nu(N)(s) the candidate measure's effort
    mass.  As g = eta (pi_0 - mu_0) / (C_0 mu_0) - (effort mass above
    precision 0), both falling in s, g rises strictly: one stationary state.
    Brent's method solves it to machine precision on [-C_0 pi_0, c_hi] (g <= 0
    where mu_0 = pi_0; [0, c_hi] and s = c_bar if C_0 pi_0 = 0), and the root
    must meet |g| <= ROOT_TOL * max(1, c_bar); a trial whose weights diverge
    counts as g = -inf.  Where ``_closed_form_mass`` applies, each trial is its
    effort mass instead, shifted by kernel calls at the root if it counts mass
    past the grid (c_lo > 0).  The |g| bound, the balance residual (at most
    RESIDUAL_TOL * max(1, eta)) and unit total mass are checked on the root's
    candidate measure.  The mass past n_max is ``tail_mass``, the convolution
    overflow over eta: summing the balance equations makes grid mass plus tail
    mass 1 up to the residuals, in every regime.  Below the escape threshold
    eta < C_tail * c_hi (``is_stable``) that tail holds a share that does not
    vanish as n_max grows.

    Solves are memoized per process (least recently used, ``_MEMO_SIZE``
    markets) on what the solve reads: eta, c_hi, n_max, the entry weights and
    the efforts.  Cost, r, eta', rho, c_lo, public signals and subsidy enter
    only the best response, so markets differing only in them share one
    solve.  The policy bounds are checked on every call, a hit returns the
    caller's own ``policy`` with the stored measure and average effort, and a
    failed solve is not stored.
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
    mu, c_bar, gap_evals = hit
    return MarketState(mu=mu, policy=policy, c_bar=c_bar, gap_evals=gap_evals)


def _root_tol(x: float) -> float:
    """Bound on |g| at average effort ``x``: ROOT_TOL relative to max(1, |x|)."""
    return ROOT_TOL * max(1.0, abs(x))


def _bracket_root(gap, lo: float, hi: float, c_bar) -> float:
    """Root of an increasing ``gap`` on [lo, hi], or an end where |gap| <= _root_tol(c_bar(end))."""
    g_lo, tol = gap(lo), _root_tol(c_bar(lo))
    if g_lo > tol:
        raise SolverError(
            f"no stationary average effort: the self-consistency gap is already positive "
            f"({g_lo:.3e}) at the lowest shift {lo:.6g}"
        )
    if g_lo >= -tol:
        return lo
    g_hi = gap(hi)
    return hi if g_hi <= _root_tol(c_bar(hi)) else _brent(gap, lo, hi, g_lo, g_hi)


# Kernel calls the truncation correction of the closed form may take.
_CORRECTIONS = 4


def _solve(policy: Policy, params: ModelParams) -> tuple[PrecisionMeasure, float, int]:
    """Uncached stationary solve: (measure with tail mass, average effort, kernel calls)."""
    # The candidate measure of every feasible kernel trial, so the root's is not computed again.
    measures: dict[float, PrecisionMeasure] = {}
    evals = 0
    offset = 0.0  # closed-form minus kernel mass above precision 0 at the last corrected root
    c0, p0 = float(policy.efforts[0]), float(params.pi.weights[0])

    def zero_effort(x: float) -> float:
        return c0 * _zero_bin(x, c0, p0, params.eta)

    def c_bar(x: float) -> float:
        return x + 2.0 * zero_effort(x)

    def measure(x: float) -> PrecisionMeasure:
        nonlocal evals
        evals += 1
        measures[x] = candidate_measure(x, policy, params)
        return measures[x]

    def kernel_gap(x: float) -> float:
        # An infeasible trial (a reached denominator degenerate, or weights
        # diverging) has effort mass past c_bar: the gap is -inf, the root above.
        try:
            return c_bar(x) - average_effort(measure(x), policy)
        except SolverError:
            return -math.inf

    def closed_gap(x: float) -> float:
        return x + zero_effort(x) - closed_form(x) + offset

    # A root's shift is at most its c_bar <= c_hi, so g(c_hi) >= 0.  The lower
    # end is +0.0 where c0 p0 = 0.
    lo, hi = 0.0 - c0 * p0, params.c_hi
    closed_form = _closed_form_mass(policy, params)

    def corrected(root: float) -> float | None:
        # The closed form also counts the mass past the grid.  Shifted by the
        # difference at a root r, its root moves by at most |g(r)| where g' >= 1
        # (no zero-bin search), so r and r - g(r) bracket it, else r and the
        # end on the root's side.  Repeat while |g| shrinks; None: kernel gap.
        nonlocal offset
        best, g_best = root, math.inf
        for _ in range(_CORRECTIONS):
            g = kernel_gap(root)
            if not abs(g) < abs(g_best):  # infeasible, or down to rounding
                break
            best, g_best = root, g
            x = c_bar(root)
            delta = (_XTOL + _RTOL * x) / 2  # Brent's tolerance, read at c_bar
            # Within it, or at an end the kernel gap's bracket takes.
            if abs(g) <= delta or (root in (lo, hi) and abs(g) <= _root_tol(x)):
                break
            offset = closed_form(root) - (root + zero_effort(root) - g)
            far = root - g
            g_far = closed_gap(far)
            if g_far * g > 0.0:
                far = lo if g > 0.0 else hi
                g_far = closed_gap(far)
                if g_far * g > 0.0:
                    return None
            moved = _brent(closed_gap, root, far, g, g_far)
            if abs(moved - root) <= delta:  # a move Brent cannot resolve
                break
            root = moved
        else:
            return None
        return best if abs(g_best) <= _root_tol(c_bar(best)) else None

    root = None if closed_form is None else _bracket_root(closed_gap, lo, hi, c_bar)
    if root is not None and policy.tail_effort() > 0.0:
        root = corrected(root)
    if root is None:
        root = _bracket_root(kernel_gap, lo, hi, c_bar)

    # Also rejects a bracket with no sign change, whose root is then hi.  An
    # infeasible root was never stored, and raises here as it did in gap.
    mu_grid = measures[root] if root in measures else measure(root)
    x = c_bar(root)
    g_root = x - average_effort(mu_grid, policy)
    if abs(g_root) > _root_tol(x):
        raise SolverError(f"no stationary average effort: |g({x:.12g})| = {abs(g_root):.3e}")
    res, overflow = balance_residual(mu_grid.weights, policy, params)
    sup_res = float(np.max(np.abs(res)))
    if sup_res > RESIDUAL_TOL * max(1.0, params.eta):
        raise SolverError(f"stationary balance residual {sup_res:.3e} exceeds tolerance")

    mu = PrecisionMeasure(mu_grid.weights, overflow / params.eta)
    mass = mu.total_mass()
    if abs(mass - 1.0) > MASS_TOL:
        raise SolverError(f"stationary mass {mass:.10f} deviates from 1")
    return mu, x, evals


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
