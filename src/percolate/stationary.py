"""Stationary precision distributions induced by a search-effort policy.

The cross-sectional measure mu over precisions solves the balance equation

    0 = eta * (pi_n - mu_n) + (nu * nu)_n - nu_n * nu(N),    nu_k = C_k mu_k,

where ``*`` is discrete self-convolution over precisions (two searchers of
precisions l and n-l meet and both land at n) and ``nu(N)`` is the total
effort mass.  Solving proceeds in two nested steps: given a trial average
effort, the weights follow from a per-precision recursion; the trial is then
fixed by a one-dimensional root find on the self-consistency gap.

Mass entering at precision 0 is supported: the convolution includes the
l = 0 and l = n terms, which moves the zero-precision balance from a linear
to a quadratic equation and shifts every denominator by the zero-bin effort.
With no entry mass at 0 the recursion reduces exactly to the classical form
with the convolution restricted to 1..n-1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
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
    for the zero-precision quadratic or a denominator degenerates.
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
    for k in range(1, n_max + 1):
        den = eta + C[k] * shift
        if den <= 1e-14:
            raise SolverError(
                f"degenerate balance denominator at precision {k} for trial effort {c_bar:.6g}"
            )
        interior = float(np.dot(nu[1:k], nu[k - 1:0:-1])) if k >= 2 else 0.0
        mu[k] = (eta * pi[k] + interior) / den
        nu[k] = C[k] * mu[k]

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

def _feasibility_floor(policy: Policy, params: ModelParams) -> float:
    """Smallest trial average effort with a real zero-precision quadratic root."""
    c0 = policy.efforts[0]
    p0 = params.pi.weights[0]
    if c0 <= 0.0 or p0 <= 0.0:
        return 0.0
    return max(0.0, (2.0 * c0 * math.sqrt(params.eta * p0) - params.eta) / c0)


def _bracketed_root(g, lo: float, hi: float, tol: float, max_iter: int = 200) -> float:
    """Root of increasing g on [lo, hi] by bisection with secant acceleration."""
    fa, fb = g(lo), g(hi)
    if abs(fa) <= tol:
        return lo
    if abs(fb) <= tol:
        return hi
    if fa > 0.0 or fb < 0.0:
        raise SolverError(
            f"root bracket invalid: g({lo:.6g})={fa:.3e}, g({hi:.6g})={fb:.3e}"
        )
    a, b = lo, hi
    for _ in range(max_iter):
        width = b - a
        x = 0.5 * (a + b)
        if math.isfinite(fa) and math.isfinite(fb) and fb != fa:
            secant = b - fb * (b - a) / (fb - fa)
            if a + 0.01 * width < secant < b - 0.01 * width:
                x = secant
        fx = g(x)
        if abs(fx) <= tol:
            return x
        if fx < 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        if b - a < 1e-16 * max(1.0, abs(b)):
            break
    x = a if abs(fa) <= abs(fb) else b
    if abs(g(x)) > tol:
        raise SolverError(f"root refinement stalled at {x:.12g} with |g| = {abs(g(x)):.3e}")
    return x


def solve_stationary(
    policy: Policy,
    params: ModelParams,
    config: SolverConfig = DEFAULT_CONFIG,
    bracket: tuple[float, float] | None = None,
) -> MarketState:
    """Stationary market state under ``policy``.

    Finds the average effort as the root of g(x) = x - nu(N)(x), where nu(N)(x)
    is the total effort mass of the candidate measure at trial effort x; g is
    strictly increasing because every candidate weight is decreasing in the
    trial effort.  The solved state is validated against the balance residual
    and, in the stable regime eta >= C_tail * c_hi, against mass conservation.
    """
    policy.validate_bounds(params)

    def gap(x: float) -> float:
        # An infeasible trial (no real zero-bin root, or an exploding bin
        # denominator) means the candidate effort mass blows past x, so the
        # gap is effectively -inf and the root must lie above x.
        try:
            return x - average_effort(candidate_measure(x, policy, params), policy)
        except SolverError:
            return -math.inf

    floor = _feasibility_floor(policy, params)
    if bracket is not None:
        lo, hi = bracket
        lo = max(lo, floor)
    else:
        lo = floor
        hi = max(params.c_hi, floor * 1.5 + 1e-6)
    g_lo = gap(lo)
    if g_lo > config.root_tol:
        raise SolverError(
            f"no stationary average effort: the self-consistency gap is already positive "
            f"({g_lo:.3e}) at the feasibility floor {lo:.6g}"
        )
    grow = 0
    while gap(hi) < 0.0:
        grow += 1
        if grow > config.max_bracket_growth:
            raise SolverError(f"could not bracket the average effort above {hi:.6g}")
        hi *= 2.0

    root = _bracketed_root(gap, lo, hi, config.root_tol)
    mu_grid = candidate_measure(root, policy, params)
    res, overflow = balance_residual(mu_grid.weights, policy, params)
    sup_res = float(np.max(np.abs(res)))
    if sup_res > config.residual_tol:
        raise SolverError(f"stationary balance residual {sup_res:.3e} exceeds tolerance")

    tail_mass = overflow / params.eta
    mu = PrecisionMeasure(mu_grid.weights, tail_mass)
    state = MarketState(mu=mu, policy=policy, c_bar=root)

    mass = mu.total_mass()
    if abs(mass - 1.0) > config.mass_tol:
        if is_stable(policy, params):
            raise SolverError(
                f"stationary mass {mass:.10f} deviates from 1 in the stable regime"
            )
        logger.warning(
            "stationary mass %.6f < 1: replacement intensity below the escape threshold",
            mass,
        )
    return state


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
