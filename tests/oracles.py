"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written from first principles (joint-Gaussian
covariance algebra, the per-precision balance recursion, scalar fixed points
via brentq, exact rational arithmetic) rather than by calling the package, so
the tests compare two genuinely different routes to the same numbers.
The simulator loops at the end, ``running_max_efforts``,
``cond_variance_branching`` and ``kernel_gap_solve`` are the exception: they
are the package's earlier code, kept so the rewritten code can be held
bit-identical (or, for the stationary root, ulp-close) to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from percolate import SolverError
from percolate.dynamics import ODE_ATOL, ODE_RTOL
from percolate.errors import ValidationError
from percolate.model import ModelParams, Policy, cross_section_params, exit_utility, gamma_coeff
from percolate.simulator import DRAW_BLOCK, SimConfig, SimOutput, ValueEstimate
from percolate.stationary import (
    MASS_TOL, RESIDUAL_TOL, ROOT_TOL, _RTOL, _XTOL, MarketState, average_effort, balance_residual,
    candidate_measure, solve_stationary,
)


def gaussian_posterior(rho: float, n: int) -> tuple[np.ndarray, float]:
    """Projection of Y on n unit-variance signals, by covariance inversion.

    Signals X_i satisfy corr(X_i, Y) = rho and are conditionally independent
    given Y, so cov(X_i, X_j) = rho^2 off the diagonal.  Returns the vector b
    with E[Y | X] = b'X and the conditional variance of Y given X.
    """
    if n == 0:
        return np.zeros(0), 1.0
    cov = np.full((n, n), rho * rho)
    np.fill_diagonal(cov, 1.0)
    cross = np.full(n, rho)
    b = np.linalg.solve(cov, cross)
    return b, 1.0 - float(cross @ b)


def cond_variance_branching(n, rho: float):
    """The package's earlier ``cond_variance``, which sets v(0) = 1 by a branch."""
    n_arr = np.asarray(n, dtype=float)
    out = np.where(n_arr == 0.0, 1.0, (1.0 - rho * rho) / (1.0 + rho * rho * (n_arr - 1.0)))
    if np.isscalar(n) or n_arr.ndim == 0:
        return float(out)
    return out


def cross_section_moments(rho: float, n: int, y: float, draws: int, seed: int) -> tuple[float, float]:
    """Empirical mean/variance of posterior means at precision n, given Y=y.

    Samples signal vectors X = rho*y + sqrt(1-rho^2)*eps directly from the
    conditional law and pushes them through the projection coefficients.
    """
    rng = np.random.default_rng(seed)
    b, _ = gaussian_posterior(rho, n)
    x = rho * y + np.sqrt(1.0 - rho * rho) * rng.standard_normal((draws, n))
    means = x @ b
    return float(means.mean()), float(means.var())


def pool_posteriors(x: float, n: int, y: float, m: int, rho: float) -> tuple[float, int]:
    """Combine two posterior means built from disjoint signal blocks.

    Given posterior means x (from n signals) and y (from m signals), the pooled
    posterior mean from the union is a gamma-weighted average and the counts add:

        pooled = (gamma(n) x + gamma(m) y) / gamma(n + m),  count = n + m.

    Requires n, m >= 1; zero-precision blocks carry no information and callers
    handle them by adopting the other side's posterior directly.
    """
    if n < 1 or m < 1:
        raise ValidationError(f"pool_posteriors requires positive signal counts, got n={n}, m={m}")
    gn = gamma_coeff(n, rho)
    gm = gamma_coeff(m, rho)
    gnm = gamma_coeff(n + m, rho)
    return (gn * x + gm * y) / gnm, n + m


# ---------------------------------------------------------------------------
# Candidate measure by the per-precision recursion
# ---------------------------------------------------------------------------


def zero_bin_root(shift: float, c0: float, p0: float, eta: float) -> float:
    """Stationary weight of precision 0 at balance shift ``shift``.

    The zero-bin balance eta (p0 - m) + (c0 m)^2 - c0 m c_bar = 0 with
    c_bar = shift + 2 c0 m reads c0^2 m^2 + b m - eta p0 = 0, b = eta + c0 shift.
    Its roots have product -eta p0 / c0^2 < 0, so exactly one is positive:
    (sqrt(b^2 + 4 c0^2 eta p0) - b) / (2 c0^2), written as eta p0 over the
    other factor for b >= 0 so that no digits cancel.  Nothing searches in
    the bin (c0 = 0) or enters it (p0 = 0): the weight is p0.
    """
    if c0 == 0.0 or p0 == 0.0:
        return float(p0)
    b = eta + c0 * shift
    d = math.sqrt(b * b + 4.0 * c0 * c0 * eta * p0)
    if b >= 0.0:
        return float(2.0 * eta * p0 / (b + d))
    return float((d - b) / (2.0 * c0 * c0))


def candidate_measure_loop(shift: float, efforts: np.ndarray, pi: np.ndarray, eta: float) -> np.ndarray:
    """Candidate stationary weights at balance shift ``shift``, one precision at a time.

    Precision 0 takes ``zero_bin_root``; then, for k = 1..n_max,

        mu_k = (eta pi_k + sum_{l=1}^{k-1} nu_l nu_{k-l}) / (eta + C_k shift),

    with nu = C mu.  A precision with a zero numerator (nothing enters or
    lands there) keeps weight 0 whatever its denominator.  Raises SolverError
    where the package's kernel must: a reached precision with denominator
    <= 1e-14, or a non-finite weight (at the first such precision).
    """
    n_max = efforts.size - 1
    mu = np.zeros(n_max + 1)
    nu = np.zeros(n_max + 1)
    mu[0] = zero_bin_root(shift, efforts[0], pi[0], eta)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_max + 1):
            interior = float(np.dot(nu[1:k], nu[k - 1:0:-1])) if k >= 2 else 0.0
            num = eta * pi[k] + interior
            if num == 0.0:
                continue
            den = eta + efforts[k] * shift
            if den <= 1e-14:
                raise SolverError(f"degenerate balance denominator at precision {k}")
            m = num / den
            if not math.isfinite(m):
                raise SolverError(f"candidate measure diverges at precision {k}")
            mu[k] = m
            nu[k] = efforts[k] * m
    return mu


# ---------------------------------------------------------------------------
# Stationary solve by Brent's method on the kernel gap
# ---------------------------------------------------------------------------


def kernel_gap_solve(policy: Policy, params: ModelParams) -> float:
    """Average effort of the stationary market, with every trial a ``candidate_measure`` call.

    The package's stationary solve before any closed form: scipy's brentq (which
    ``stationary._brent`` ports step for step) on the balance shift s, with
    g(s) = c_bar(s) - grid effort mass and c_bar(s) = s + 2 C_0 ``zero_bin_root``(s),
    over [-C_0 pi_0, c_hi], an end of the bracket taken when
    |g| <= ROOT_TOL * max(1, |c_bar|) there, an infeasible trial counted as
    g = -inf.  Raises SolverError where the package's acceptance does: a gap
    already positive at the lower end, a root with |g| > ROOT_TOL * max(1, c_bar), a
    balance residual past RESIDUAL_TOL * max(1, eta), or a total mass (grid
    plus the overflow past it) off 1 by more than MASS_TOL, in either regime.
    """
    c0, p0 = float(policy.efforts[0]), float(params.pi.weights[0])

    def c_bar(s: float) -> float:
        return s + 2.0 * c0 * zero_bin_root(s, c0, p0, params.eta)

    def gap(s: float) -> float:
        try:
            return c_bar(s) - average_effort(candidate_measure(s, policy, params), policy)
        except SolverError:
            return -math.inf

    def tol(s: float) -> float:
        return ROOT_TOL * max(1.0, abs(c_bar(s)))

    lo, hi = 0.0 - c0 * p0, params.c_hi
    g_lo = gap(lo)
    if g_lo > tol(lo):
        raise SolverError(f"gap {g_lo:.3e} already positive at the lower end {lo}")
    root = lo
    if g_lo < -tol(lo):
        root = hi
        if gap(hi) > tol(hi):
            root = brentq(gap, lo, hi, xtol=_XTOL, rtol=_RTOL, disp=False)
    mu = candidate_measure(root, policy, params)
    x = c_bar(root)
    if abs(x - average_effort(mu, policy)) > tol(root):
        raise SolverError(f"|g({x})| > ROOT_TOL * max(1, c_bar)")
    res, overflow = balance_residual(mu.weights, policy, params)
    if float(np.max(np.abs(res))) > RESIDUAL_TOL * max(1.0, params.eta):
        raise SolverError("balance residual exceeds tolerance")
    mass = mu.grid_mass() + overflow / params.eta
    if abs(mass - 1.0) > MASS_TOL:
        raise SolverError(f"stationary mass {mass} deviates from 1")
    return float(x)


# ---------------------------------------------------------------------------
# Stationary state as the limit of the measure flow
# ---------------------------------------------------------------------------

# Fixed from the integrator's tolerances before the flow oracle's first run.
# RK45 holds each step to ODE_ATOL + ODE_RTOL |y| with every weight at most 1:
# the flow has settled when a window of 10 / eta moves no weight or the tail
# by more than FLOW_TOL, and a stationary solve agrees with it when they are
# FLOW_GATE apart at most (sup norm over the weights and the tail).
FLOW_TOL = ODE_ATOL + ODE_RTOL
FLOW_GATE = 100.0 * FLOW_TOL
FLOW_WINDOWS = 200


def stationary_flow(policy: Policy, params: ModelParams) -> tuple[np.ndarray, float]:
    """Grid weights and tail mass where the measure flow from ``pi`` comes to rest.

    Integrates d mu_n / dt = eta (pi_n - mu_n) + (nu * nu)_n - nu_n nu(N),
    nu = C mu, with the convolution past n_max feeding a tail that decays at
    rate eta, by scipy's RK45 at ODE_ATOL / ODE_RTOL, one window of 10 / eta
    at a time until a window moves nothing by more than FLOW_TOL.  Written
    from the flow's equation, not from ``dynamics``; AssertionError if the
    flow has not settled after FLOW_WINDOWS windows.
    """
    efforts, pi, eta, n = policy.efforts, params.pi.weights, params.eta, params.n_max

    def rhs(_t, y):
        nu = efforts * y[:-1]
        conv = np.convolve(nu, nu)
        grid = eta * (pi - y[:-1]) + conv[: n + 1] - nu * nu.sum()
        return np.append(grid, conv[n + 1 :].sum() - eta * y[-1])

    y = np.append(pi, 0.0)
    for _ in range(FLOW_WINDOWS):
        sol = solve_ivp(rhs, (0.0, 10.0 / eta), y, method="RK45", atol=ODE_ATOL, rtol=ODE_RTOL)
        assert sol.success, sol.message
        moved = float(np.max(np.abs(sol.y[:, -1] - y)))
        y = sol.y[:, -1]
        if moved <= FLOW_TOL:
            return y[:-1], float(y[-1])
    raise AssertionError(f"measure flow still moves {moved:.3e} after {FLOW_WINDOWS} windows")


# ---------------------------------------------------------------------------
# Damping factors and the generating-function cross-check
# ---------------------------------------------------------------------------
# Written from the closed form of the generating function, not from the
# package's kernel: ``mgf_check`` reads only the solved measure and average
# effort, so it checks ``candidate_measure`` independently.


def flat_tail_index(policy: Policy) -> int:
    """Smallest N >= 1 with constant effort at all precisions >= N."""
    e = policy.efforts
    n = e.size - 1
    idx = n
    while idx > 1 and e[idx - 1] == e[n]:
        idx -= 1
    return idx


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
    n_flat = flat_tail_index(state.policy)
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
# Transient generating function under constant effort
# ---------------------------------------------------------------------------


def constant_effort_transient(c: float, eta: float, pi_x: float, t: float) -> float:
    """G(x, t) = sum_n mu_n(t) x^n of the measure flow from mu(0) = pi, everyone at effort c > 0.

    With unit mass and average effort c, the flow's generating function solves
    the Riccati equation

        dG/dt = c^2 G^2 - (eta + c^2) G + eta Pi(x),    G(0) = Pi(x),

    with Pi(x) = ``pi_x`` the entry law's generating function at x.  Its
    roots g1 < g2 (g1 the stable one, g2 > 1 for x < 1) give
    (G - g1) / (G - g2) = R0 exp(-sqrt(D) t), D = (eta + c^2)^2 - 4 c^2 eta Pi(x).
    Written from the flow's equation, not from ``dynamics``.
    """
    a, b, k = c * c, eta + c * c, eta * pi_x
    root_d = math.sqrt(b * b - 4.0 * a * k)
    g1 = 2.0 * k / (b + root_d)  # the smaller root without cancellation
    g2 = (b + root_d) / (2.0 * a)
    ratio = (pi_x - g1) / (pi_x - g2) * math.exp(-root_d * t)
    return (g1 - ratio * g2) / (1.0 - ratio)


# ---------------------------------------------------------------------------
# Three-bin market: policy (C1, C2, 0, ...) with entries on {1, 2, 3}
# ---------------------------------------------------------------------------


def three_bin_market(c1: float, c2: float, eta: float = 1.0,
                     pi: tuple[float, float, float] = (0.2, 0.6, 0.2)) -> dict:
    """Exact stationary solution of the closed four-bin system.

    With zero effort above precision 2, the effort-weighted measure is
    supported on {1, 2}, making the balance equations finite:
      mu1 = eta*pi1 / (eta + C1*R)
      mu2 = (eta*pi2 + (C1*mu1)^2) / (eta + C2*R)
      mu3 = (eta*pi3 + 2*C1*mu1*C2*mu2) / eta
      mu4 = (C2*mu2)^2 / eta
    where R = C1*mu1 + C2*mu2 is found as a scalar root.
    """
    p1, p2, p3 = pi

    def gap(r):
        m1 = eta * p1 / (eta + c1 * r)
        n1 = c1 * m1
        m2 = (eta * p2 + n1 * n1) / (eta + c2 * r)
        return r - (n1 + c2 * m2)

    r = brentq(gap, 0.0, max(c1, c2, 1.0) + 1.0, xtol=1e-15, rtol=8.9e-16)
    m1 = eta * p1 / (eta + c1 * r)
    n1 = c1 * m1
    m2 = (eta * p2 + n1 * n1) / (eta + c2 * r)
    n2 = c2 * m2
    m3 = (eta * p3 + 2 * n1 * n2) / eta
    m4 = n2 * n2 / eta
    return {"c_bar": r, "mu": (m1, m2, m3, m4), "nu": (n1, n2)}


def three_bin_derivatives(c2: float = 1.0, h: float = 1e-7) -> tuple[float, float]:
    """Central-difference d(c_bar)/dC1 and d(C2*mu2)/dC1 at C1 = C2."""
    up = three_bin_market(c2 + h, c2)
    dn = three_bin_market(c2 - h, c2)
    d_cbar = (up["c_bar"] - dn["c_bar"]) / (2 * h)
    d_nu2 = (up["nu"][1] - dn["nu"][1]) / (2 * h)
    return d_cbar, d_nu2


# ---------------------------------------------------------------------------
# Exact-arithmetic scan for the uniform trigger bound
# ---------------------------------------------------------------------------


def exact_trigger_bound(rho: Fraction, c_hi: Fraction, eta_prime: Fraction,
                        r: Fraction, kappa: Fraction, scan_to: int = 10_000) -> int:
    """max{j : c_hi * eta' * (r + eta') * (u_sup - u(j)) >= kappa}, exactly.

    Uses Fractions throughout so boundary equalities are decided without
    floating-point rounding; u(j) = -(1 - rho^2)/(1 + rho^2 (j - 1)) and
    u_sup = 0 for the default payoff.
    """
    best = -1
    for j in range(scan_to + 1):
        u_j = -(1 - rho * rho) / (1 + rho * rho * (j - 1)) if j > 0 else Fraction(-1)
        if c_hi * eta_prime * (r + eta_prime) * (0 - u_j) >= kappa:
            best = j
    return best


# ---------------------------------------------------------------------------
# Maximizing efforts of the Bellman operator by a running maximum
# ---------------------------------------------------------------------------


def running_max_efforts(terms, y: np.ndarray) -> np.ndarray:
    """The maximizing effort per precision, as the operator once built it on every call.

    ``terms`` holds (c, numerator constant, denominator) per candidate effort c
    in increasing order, starting at c_lo; ``y`` is the jump expectation.  A
    candidate whose objective reaches the running maximum replaces the
    effort so far, so ties resolve to the larger effort.
    """
    (c_lo, num, den), *rest = terms
    best = (num + c_lo * y) / den
    arg = np.full(y.size, c_lo)
    for c, num, den in rest:
        f = (num + c * y) / den
        np.copyto(arg, c, where=f >= best)
        np.maximum(f, best, out=best)
    return arg


# ---------------------------------------------------------------------------
# Simulator event loops with per-draw buffer indexing
# ---------------------------------------------------------------------------
# The simulator as it stood before its streams became lazy block iterators:
# the same draws in the same order, but every draw indexes a buffer, the
# search sums are recomputed on every event, and each jump target is a scalar
# np.searchsorted.  ``run_loop`` and ``estimate_value_loop`` must agree with
# ``run`` and ``estimate_value`` bit for bit.

class _Draws:
    """Buffered draws from a seeded generator (deterministic refill order)."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._u = rng.random(DRAW_BLOCK)
        self._e = rng.standard_exponential(DRAW_BLOCK)
        self._n = rng.standard_normal(DRAW_BLOCK)
        self._iu = self._ie = self._in = 0

    def u(self) -> float:
        i = self._iu
        if i == DRAW_BLOCK:
            self._u = self._rng.random(DRAW_BLOCK)
            i = 0
        self._iu = i + 1
        return float(self._u[i])

    def e(self) -> float:
        i = self._ie
        if i == DRAW_BLOCK:
            self._e = self._rng.standard_exponential(DRAW_BLOCK)
            i = 0
        self._ie = i + 1
        return float(self._e[i])

    def n(self) -> float:
        i = self._in
        if i == DRAW_BLOCK:
            self._n = self._rng.standard_normal(DRAW_BLOCK)
            i = 0
        self._in = i + 1
        return float(self._n[i])


def run_loop(
    policy: Policy,
    params: ModelParams,
    cfg: SimConfig,
) -> SimOutput:
    """Simulate the finite-population market under ``policy``."""
    if cfg.population < 2:
        raise ValidationError("population must be at least 2")
    if cfg.horizon <= 0:
        raise ValidationError("horizon must be positive")
    policy.validate_bounds(params)

    P = cfg.population
    n_max = params.n_max
    cap = 4 * n_max
    eta = params.eta
    eta_prime = params.eta_prime
    rho = params.rho
    y = cfg.y_realization
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    draws = _Draws(rng)

    # Effort classes over the (tail-extended) precision range.
    effort_by_prec = np.empty(cap + 1)
    effort_by_prec[: n_max + 1] = policy.efforts
    effort_by_prec[n_max + 1 :] = policy.tail_effort()
    class_values = sorted(set(effort_by_prec.tolist()))
    n_cls = len(class_values)
    cls_of_prec = [class_values.index(effort_by_prec[p]) for p in range(cap + 1)]

    # Pooling coefficients by precision.
    gammas = [float(gamma_coeff(p, rho)) for p in range(2 * cap + 1)]

    # Entry sampler: precision from pi, posterior mean conditioned on the state.
    pi_w = params.pi.weights
    entry_prec_values = [int(k) for k in np.flatnonzero(pi_w > 0)]
    total_w = float(pi_w.sum())
    entry_probs = [float(pi_w[k]) / total_w for k in entry_prec_values]
    entry_mean_sd = []
    for k in entry_prec_values:
        m, v = cross_section_params(k, y, rho)
        entry_mean_sd.append((m, math.sqrt(v)))
    n_entry = len(entry_prec_values)

    def draw_entry() -> tuple[int, float]:
        uu = draws.u()
        acc = 0.0
        j = n_entry - 1
        for k in range(n_entry):
            acc += entry_probs[k]
            if uu < acc:
                j = k
                break
        n0 = entry_prec_values[j]
        m, sd = entry_mean_sd[j]
        return n0, (m + sd * draws.n() if sd > 0.0 else m)

    # Agent state (plain lists: hot loop does scalar access).
    prec: list[int] = [0] * P
    mean: list[float] = [0.0] * P
    agent_cls: list[int] = [0] * P

    pools: list[list[int]] = [[] for _ in range(n_cls)]
    pos: list[int] = [0] * P

    for a in range(P):
        n0, x0 = draw_entry()
        prec[a] = n0
        mean[a] = x0
        c = cls_of_prec[n0]
        agent_cls[a] = c
        pos[a] = len(pools[c])
        pools[c].append(a)

    counts = [len(p) for p in pools]

    def move(a: int, new_c: int) -> None:
        old = agent_cls[a]
        if old == new_c:
            return
        p = pos[a]
        last = pools[old].pop()
        if last != a:
            pools[old][p] = last
            pos[last] = p
        counts[old] -= 1
        pos[a] = counts[new_c]
        pools[new_c].append(a)
        counts[new_c] += 1
        agent_cls[a] = new_c

    def pick_searcher() -> int:
        s1 = 0.0
        for c in range(n_cls):
            s1 += class_values[c] * counts[c]
        target = draws.u() * s1
        acc = 0.0
        c = n_cls - 1
        for k in range(n_cls):
            acc += class_values[k] * counts[k]
            if target < acc:
                c = k
                break
        idx = int(draws.u() * counts[c])
        if idx >= counts[c]:
            idx = counts[c] - 1
        return pools[c][idx]

    # Snapshot bookkeeping.
    rec_times = np.linspace(0.0, cfg.horizon, 51)
    histograms = np.zeros((rec_times.size, n_max + 2), dtype=np.int64)
    mean_sums = np.zeros((rec_times.size, n_max + 2))
    mean_square_sums = np.zeros((rec_times.size, n_max + 2))
    rec_idx = 0

    def snapshot(i: int) -> None:
        arr = np.minimum(np.asarray(prec), n_max + 1)
        vals = np.asarray(mean)
        histograms[i] = np.bincount(arr, minlength=n_max + 2)
        mean_sums[i] = np.bincount(arr, weights=vals, minlength=n_max + 2)
        mean_square_sums[i] = np.bincount(arr, weights=vals * vals, minlength=n_max + 2)

    n_events = n_matches = n_resets = n_exits = n_rejects = n_caps = 0

    t = 0.0
    reset_rate = eta * P
    exit_rate = eta_prime * P
    while True:
        s1 = s2 = 0.0
        for c in range(n_cls):
            v = class_values[c]
            s1 += v * counts[c]
            s2 += v * v * counts[c]
        match_rate = (s1 * s1 - s2) / (2.0 * P)
        if match_rate < 0.0:
            match_rate = 0.0
        lam = match_rate + reset_rate + exit_rate
        t_next = t + draws.e() / lam

        while rec_idx < rec_times.size and rec_times[rec_idx] <= t_next:
            snapshot(rec_idx)
            rec_idx += 1
        if t_next > cfg.horizon:
            break
        t = t_next
        n_events += 1

        slot = draws.u() * lam
        if slot < match_rate:
            n_matches += 1
            i = pick_searcher()
            j = pick_searcher()
            while j == i:
                n_rejects += 1
                j = pick_searcher()
            ni, nj = prec[i], prec[j]
            nn = ni + nj
            if nn > cap:
                nn = cap
                n_caps += 1
            if ni == 0 and nj == 0:
                pass
            else:
                if ni == 0:
                    xx = mean[j]
                elif nj == 0:
                    xx = mean[i]
                else:
                    xx = (gammas[ni] * mean[i] + gammas[nj] * mean[j]) / gammas[nn]
                for a in (i, j):
                    move(a, cls_of_prec[nn])
                    prec[a] = nn
                    mean[a] = xx
        elif slot < match_rate + reset_rate:
            n_resets += 1
            a = int(draws.u() * P)
            if a == P:
                a = P - 1
            n0, x0 = draw_entry()
            prec[a] = n0
            mean[a] = x0
            move(a, cls_of_prec[n0])
        else:
            n_exits += 1
            a = int(draws.u() * P)
            if a == P:
                a = P - 1
            src = int(draws.u() * P)
            if src == P:
                src = P - 1
            prec[a] = prec[src]
            mean[a] = mean[src]
            move(a, agent_cls[src])

    return SimOutput(
        times=rec_times,
        histograms=histograms,
        mean_sums=mean_sums,
        mean_square_sums=mean_square_sums,
        final_precisions=np.asarray(prec, dtype=np.int64),
        final_means=np.asarray(mean, dtype=float),
        n_events=n_events,
        n_matches=n_matches,
        n_resets=n_resets,
        n_exits=n_exits,
        n_pair_rejects=n_rejects,
        n_precision_caps=n_caps,
        config=cfg,
    )


def estimate_value_loop(
    policy: Policy,
    params: ModelParams,
    cfg: SimConfig,
    entry_precision: int = 1,
    state: MarketState | None = None,
) -> ValueEstimate:
    """Monte Carlo estimate of the discounted value at ``entry_precision``.

    The agent follows ``policy`` inside the stationary mean-field market that
    the same policy induces (solved internally unless ``state`` is given):
    meetings arrive at c * c_bar, partners are drawn from the effort-weighted
    measure, exit occurs at eta', and flow cost accrues between events in
    closed form.  Returns the sample mean with a 95% confidence half-width.
    """
    if not 0 <= entry_precision <= params.n_max:
        raise ValidationError(f"entry precision must lie in [0, {params.n_max}]")
    R = cfg.replications if cfg.replications is not None else cfg.population
    if R < 1:
        raise ValidationError("replications must be at least 1")
    if state is None:
        state = solve_stationary(policy, params)
    w = state.policy.efforts * state.mu.weights
    c_bar = float(w.sum())
    if c_bar > 0:
        jump_cum = np.cumsum(w) / c_bar
    else:
        jump_cum = None
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    cost = params.effective_cost()
    r = params.r
    eta_prime = params.eta_prime
    n_max = params.n_max
    cap = 8 * n_max
    u_of_prec = [float(exit_utility(params, p)) for p in range(cap + 1)]
    eff = policy.efforts
    k_of_prec = [cost.cost(float(eff[min(p, n_max)])) for p in range(cap + 1)]
    c_of_prec = [float(eff[min(p, n_max)]) for p in range(cap + 1)]

    draws = _Draws(rng)
    total = 0.0
    total_sq = 0.0
    for _ in range(R):
        tau = draws.e() / eta_prime
        n = entry_precision
        t = 0.0
        util = 0.0
        while True:
            rate = c_of_prec[n] * c_bar
            t_jump = t + draws.e() / rate if rate > 0.0 else math.inf
            t_stop = tau if tau < t_jump else t_jump
            k = k_of_prec[n]
            if k != 0.0:
                util -= k * (math.exp(-r * t) - math.exp(-r * t_stop)) / r
            if tau <= t_jump:
                util += math.exp(-r * tau) * u_of_prec[n]
                break
            m = int(np.searchsorted(jump_cum, draws.u(), side="right"))
            if m > n_max:
                m = n_max
            n = min(n + m, cap)
            t = t_jump
        total += util
        total_sq += util * util
    mean = total / R
    var = max(total_sq / R - mean * mean, 0.0) * R / max(R - 1, 1)
    half = 1.96 * math.sqrt(var / R)
    return ValueEstimate(mean=mean, half_width=half, replications=R)
