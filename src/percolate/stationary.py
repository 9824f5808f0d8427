"""Stationary precision distributions induced by a search-effort policy.

The cross-sectional measure mu over precisions solves the balance equation

    0 = eta * (pi_n - mu_n) + (nu * nu)_n - nu_n * nu(N),    nu_k = C_k mu_k,

where ``*`` is discrete self-convolution over precisions (two searchers of
precisions l and n-l meet and both land at n) and ``nu(N)`` is the total
effort mass.  Solving proceeds in two nested steps: given a trial average
effort, the weights follow from a per-precision recursion; the trial is then
fixed by Brent's method on the self-consistency gap.

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
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import SolverError, ValidationError
from .model import ModelParams, Policy, PrecisionMeasure, effort_weighted

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
        """Effort-weighted stationary measure (total mass = average effort)."""
        return effort_weighted(self.mu, self.policy)


# ---------------------------------------------------------------------------
# Candidate measure for a trial average effort
# ---------------------------------------------------------------------------

def candidate_measure(
    c_bar: float,
    policy: Policy,
    params: ModelParams,
) -> PrecisionMeasure:
    """Solve the per-precision balance given a trial average effort ``c_bar``.

    Precision 0 satisfies a quadratic (its searchers can only meet other
    zero-precision searchers without leaving the bin); the dynamically stable
    branch is the smaller root.  Precisions k >= 1 then follow from

        mu_k = (eta pi_k + sum_{l=1}^{k-1} nu_l nu_{k-l}) / (eta + C_k (c_bar - 2 nu_0)),

    where the 2 nu_0 correction accounts for meetings with zero-precision
    searchers keeping the mover at its own precision plus the l=0/l=k
    convolution terms.  Raises SolverError if the trial effort is infeasible
    for the zero-precision quadratic, a denominator degenerates or a weight
    diverges (overflows to a non-finite value).
    """
    if c_bar < 0:
        raise ValidationError(f"average effort must be nonnegative, got {c_bar}")
    eta = params.eta
    n_max = params.n_max
    C = policy.efforts
    pi = params.pi.weights

    mu = np.zeros(n_max + 1)
    nu = np.zeros(n_max + 1)

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
        mu[0] = (b - math.sqrt(disc)) / (2.0 * c0 * c0)
    else:
        mu[0] = pi[0]
    nu[0] = c0 * mu[0]

    shift = c_bar - 2.0 * nu[0]
    # Stop at the first non-finite weight, before inf meets a zero effort as NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_max + 1):
            den = eta + C[k] * shift
            if den <= 1e-14:
                raise SolverError(
                    f"degenerate balance denominator at precision {k} for trial effort {c_bar:.6g}"
                )
            interior = float(np.dot(nu[1:k], nu[k - 1:0:-1])) if k >= 2 else 0.0
            m = (eta * pi[k] + interior) / den
            if not math.isfinite(m):
                raise SolverError(f"candidate measure diverges at precision {k} (trial {c_bar:.6g})")
            mu[k] = m
            nu[k] = C[k] * m

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

# The smallest tolerances brentq accepts: since g' >= 1, stopping at an
# x-tolerance of ROOT_TOL can still leave |g| above ROOT_TOL.
_XTOL = math.ulp(0.0)
_RTOL = 4.0 * np.finfo(float).eps


def _feasibility_floor(policy: Policy, params: ModelParams) -> float:
    """Smallest trial average effort with a real zero-precision quadratic root."""
    c0 = policy.efforts[0]
    p0 = params.pi.weights[0]
    if c0 <= 0.0 or p0 <= 0.0:
        return 0.0
    return max(0.0, (2.0 * c0 * math.sqrt(params.eta * p0) - params.eta) / c0)


# A descending scan visits its triggers in the same order every time, so an
# LRU smaller than one scan's markets would never hit; 1024 covers every
# trigger of a scan up to n_max = 1023.
_MEMO_SIZE = 1024
_memo: OrderedDict[bytes, tuple[PrecisionMeasure, float]] = OrderedDict()
_memo_lock = threading.Lock()


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
    with _memo_lock:
        hit = _memo.get(key)
        if hit is not None:
            _memo.move_to_end(key)
    if hit is None:
        hit = _solve(policy, params)
        with _memo_lock:
            _memo[key] = hit
            if len(_memo) > _MEMO_SIZE:
                _memo.popitem(last=False)
    mu, c_bar = hit
    return MarketState(mu=mu, policy=policy, c_bar=c_bar)


def _solve(policy: Policy, params: ModelParams) -> tuple[PrecisionMeasure, float]:
    """Uncached stationary solve: (measure with tail mass, average effort)."""

    def gap(x: float) -> float:
        # An infeasible trial (no real zero-bin root, an exploding bin
        # denominator or diverging weights) means the candidate effort mass
        # blows past x, so the gap is effectively -inf and the root lies above.
        try:
            return x - average_effort(candidate_measure(x, policy, params), policy)
        except SolverError:
            return -math.inf

    lo = _feasibility_floor(policy, params)
    # Any root is a grid effort mass, at most c_hi times a grid mass <= 1, so g(c_hi) >= 0.
    hi = max(params.c_hi, lo)
    ends = {lo: gap(lo)}
    if ends[lo] > ROOT_TOL:
        raise SolverError(
            f"no stationary average effort: the self-consistency gap is already positive "
            f"({ends[lo]:.3e}) at the feasibility floor {lo:.6g}"
        )
    root = lo
    if ends[lo] < -ROOT_TOL:
        ends[hi] = gap(hi)
        root = hi
        if ends[hi] > ROOT_TOL:
            # brentq evaluates both ends again; they are already known.
            root = brentq(lambda x: ends[x] if x in ends else gap(x), lo, hi,
                          xtol=_XTOL, rtol=_RTOL, disp=False)

    # Also rejects a bracket with no sign change, whose root is then hi.
    mu_grid = candidate_measure(root, policy, params)
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
# Damping factors and the generating-function cross-check
# ---------------------------------------------------------------------------

def z_sequence(state: MarketState, params: ModelParams) -> np.ndarray:
    """Damping factors z_k = sqrt(eta) C_k / (eta + C_k c_bar) of the effort-weighted recursion.

    Defined for k >= 1 (z[0] is 0 and unused).  The sqrt(eta) factor expresses
    the sequence in entry-rate units, where the replacement intensity is 1;
    only then does the bound z < 1 hold.
    """
    C = state.policy.efforts
    z = np.zeros(params.n_max + 1)
    z[1:] = math.sqrt(params.eta) * C[1:] / (params.eta + C[1:] * state.c_bar)
    return z


@dataclass(frozen=True)
class MgfPoint:
    x: float
    closed_form: float
    direct_series: float

    @property
    def gap(self) -> float:
        return abs(self.closed_form - self.direct_series)


def mgf_check(
    state: MarketState,
    params: ModelParams,
    x_points: "list[float] | np.ndarray",
) -> list[MgfPoint]:
    """Generating function of the effort-weighted measure: closed form vs series.

    For a policy with a flat tail from index N and positive tail effort, the
    generating function m(x) = sum_k nu_k x^k solves a quadratic whose closed
    form (in entry-rate-normalized units, tilde = sqrt(eta)-scaled)

        m~(x) = (1 - sqrt(1 - 4 z_N M(x))) / (2 z_N),
        M(x)  = z_N * sum_{i>=2} pi_i x^i + pi_1 z_1 x
                + sum_{i=2}^{N-1} x^i (z_i - z_N) (pi_i + (nu~ * nu~)_i),

    is compared against direct summation of the series.  Requires no entry
    mass at precision 0 and positive tail effort (otherwise the 2 z_N
    denominator degenerates and only the direct series is meaningful).
    """
    if params.pi.weights[0] > 0.0:
        raise ValidationError("closed form requires no entry mass at precision 0")
    C = state.policy.efforts
    n_flat = state.policy.flat_tail_index()
    if C[-1] <= 0.0:
        raise ValidationError("closed form degenerates with zero tail effort; use the direct series")

    s = math.sqrt(params.eta)
    z = z_sequence(state, params)
    zN = z[n_flat]
    nu = C * state.mu.weights
    nu_t = nu / s
    pi = params.pi.weights
    conv_t = np.convolve(nu_t, nu_t)

    out = []
    for x in x_points:
        x = float(x)
        powers = x ** np.arange(params.n_max + 1)
        mb2 = float(np.dot(pi[2:], powers[2:]))
        M = zN * mb2 + pi[1] * z[1] * x
        for i in range(2, n_flat):
            M += powers[i] * (z[i] - zN) * (pi[i] + conv_t[i])
        disc = 1.0 - 4.0 * zN * M
        if disc < 0.0:
            raise SolverError(f"generating-function branch undefined at x={x} (disc {disc:.3e})")
        closed = s * (1.0 - math.sqrt(disc)) / (2.0 * zN)
        direct = float(np.dot(nu[1:], powers[1:]))
        out.append(MgfPoint(x=x, closed_form=closed, direct_series=direct))
    return out


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
    max_gap: float
    tol: float

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
    ta = a.tail_sums()
    tb = b.tail_sums()
    diff = ta - tb
    viol_a = np.flatnonzero(diff < -tol)
    viol_b = np.flatnonzero(diff > tol)
    return FosdReport(
        a_dominates=viol_a.size == 0,
        b_dominates=viol_b.size == 0,
        first_violation_a=int(viol_a[0]) if viol_a.size else None,
        first_violation_b=int(viol_b[0]) if viol_b.size else None,
        max_gap=float(np.max(np.abs(diff))),
        tol=tol,
    )
