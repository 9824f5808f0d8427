"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written from first principles (joint-Gaussian
covariance algebra, the per-precision balance recursion, scalar fixed points
via brentq, exact rational arithmetic) rather than by calling the package, so
the tests compare two genuinely different routes to the same numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from percolate import SolverError


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


# ---------------------------------------------------------------------------
# Candidate measure by the per-precision recursion
# ---------------------------------------------------------------------------


def candidate_measure_loop(c_bar: float, efforts: np.ndarray, pi: np.ndarray, eta: float) -> np.ndarray:
    """Candidate stationary weights at trial effort ``c_bar``, one precision at a time.

    Precision 0 takes the smaller root of its quadratic, in the form
    2 eta pi_0 / (b + sqrt(disc)) that keeps its digits as C_0 -> 0; then,
    for k = 1..n_max,

        mu_k = (eta pi_k + sum_{l=1}^{k-1} nu_l nu_{k-l}) / (eta + C_k (c_bar - 2 nu_0)),

    with nu = C mu.  Raises SolverError where the package's kernel must: an
    infeasible zero-bin quadratic, a denominator <= 1e-14, or a non-finite
    weight (at the first such precision).
    """
    n_max = efforts.size - 1
    mu = np.zeros(n_max + 1)
    nu = np.zeros(n_max + 1)
    c0 = efforts[0]
    if c0 > 0.0 and pi[0] > 0.0:
        b = eta + c0 * c_bar
        disc = b * b - 4.0 * c0 * c0 * eta * pi[0]
        if disc < 0.0:
            if disc > -1e-12 * b * b:
                disc = 0.0
            else:
                raise SolverError(f"trial {c_bar} infeasible for the zero-precision balance")
        mu[0] = 2.0 * eta * pi[0] / (b + math.sqrt(disc))
    else:
        mu[0] = pi[0]
    nu[0] = c0 * mu[0]
    shift = c_bar - 2.0 * nu[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_max + 1):
            den = eta + efforts[k] * shift
            if den <= 1e-14:
                raise SolverError(f"degenerate balance denominator at precision {k}")
            interior = float(np.dot(nu[1:k], nu[k - 1:0:-1])) if k >= 2 else 0.0
            m = (eta * pi[k] + interior) / den
            if not math.isfinite(m):
                raise SolverError(f"candidate measure diverges at precision {k}")
            mu[k] = m
            nu[k] = efforts[k] * m
    return mu


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
