"""Time evolution of the precision distribution under a fixed policy.

The grid weights follow the measure flow

    d mu_n / dt = eta (pi_n - mu_n) + (nu * nu)_n - nu_n nu(N),

with convolution overflow past the grid routed into an explicit tail
compartment that decays at the replacement intensity.  Total mass (grid plus
tail) then relaxes to 1, and the truncated system conserves mass up to the
overflow that the tail compartment accounts for.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import SolverError, ValidationError
from .model import ModelParams, Policy, PrecisionMeasure
from .stationary import MarketState, balance_residual, is_stable, solve_stationary

logger = logging.getLogger(__name__)

# Absolute and relative tolerances of the measure-flow integrator.
ODE_ATOL = 1e-10
ODE_RTOL = 1e-8


def rhs(weights: np.ndarray, policy: Policy, params: ModelParams) -> np.ndarray:
    """Instantaneous drift of the grid weights (overflow flows to the tail).

    The components sum to eta * (1 - grid mass) minus the convolution overflow,
    so they sum to ~0 for a probability vector with negligible truncation.
    """
    res, _ = balance_residual(np.asarray(weights, dtype=float), policy, params)
    return res


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots of the measure flow on a fixed observation grid."""

    times: np.ndarray
    measures: list[PrecisionMeasure]
    mass: np.ndarray
    clip_count: int
    clip_magnitude: float

    def final(self) -> PrecisionMeasure:
        return self.measures[-1]

    def l1_distance(self, other: PrecisionMeasure, at: int = -1) -> float:
        m = self.measures[at]
        return float(np.abs(m.weights - other.weights).sum()) + abs(m.tail_mass - other.tail_mass)


def integrate(
    mu0: PrecisionMeasure,
    policy: Policy,
    params: ModelParams,
    t_end: float,
    dt_out: float | None = None,
) -> Trajectory:
    """Integrate the measure flow from ``mu0`` to ``t_end``.

    Uses an adaptive explicit Runge-Kutta (4,5) scheme at tight tolerances.
    Snapshots on the observation grid are checked for negativity: undershoots
    down to -1e3 * ODE_ATOL are clipped to zero and counted; anything worse raises.
    """
    if t_end <= 0:
        raise ValidationError("t_end must be positive")
    policy.validate_bounds(params)
    if mu0.weights.size != params.n_max + 1:
        raise ValidationError("initial measure grid does not match n_max")

    def flow(_t, y):
        res, overflow = balance_residual(y[:-1], policy, params)
        return np.append(res, overflow - params.eta * y[-1])

    if dt_out is None:
        dt_out = t_end / 50.0
    t_eval = np.arange(0.0, t_end + dt_out * 0.5, dt_out)
    if t_eval[-1] < t_end:
        t_eval = np.append(t_eval, t_end)

    y0 = np.append(mu0.weights, mu0.tail_mass)
    sol = solve_ivp(
        flow,
        (0.0, t_end),
        y0,
        method="RK45",
        t_eval=t_eval,
        atol=ODE_ATOL,
        rtol=ODE_RTOL,
    )
    if not sol.success:
        raise SolverError(f"measure-flow integration failed: {sol.message}")

    measures: list[PrecisionMeasure] = []
    clip_count = 0
    clip_magnitude = 0.0
    # Undershoots up to a few orders above the integrator's absolute
    # tolerance are discretization noise to clip and count; anything worse
    # signals a genuine defect in the flow.
    clip_floor = -1e3 * ODE_ATOL
    for col in sol.y.T:
        w = col[:-1].copy()
        tail = float(col[-1])
        neg = w < 0.0
        if np.any(neg):
            worst = float(w[neg].min())
            if worst < clip_floor:
                raise SolverError(f"measure flow produced negative weight {worst:.3e}")
            clip_count += int(neg.sum())
            clip_magnitude = max(clip_magnitude, -worst)
            w[neg] = 0.0
        if tail < 0.0:
            if tail < clip_floor:
                raise SolverError(f"measure flow produced negative tail {tail:.3e}")
            clip_count += 1
            clip_magnitude = max(clip_magnitude, -tail)
            tail = 0.0
        measures.append(PrecisionMeasure(w, tail))
    if clip_count:
        logger.info("clipped %d negative undershoots (worst %.2e)", clip_count, clip_magnitude)

    mass = np.array([m.total_mass() for m in measures])
    return Trajectory(
        times=sol.t,
        measures=measures,
        mass=mass,
        clip_count=clip_count,
        clip_magnitude=clip_magnitude,
    )


@dataclass(frozen=True)
class MassLossReport:
    """Stability diagnostic for the measure flow under a flat-tail policy.

    ``stable`` reports the sufficient condition eta >= c_tail * c_hi under
    which no probability escapes to infinity.  When it fails and the tail
    effort is positive, ``limit_mass`` estimates the stationary mass
    1 + (eta - c_tail * c_bar) / c_tail^2 retained by the flow.
    """

    stable: bool
    tail_effort: float
    c_bar: float
    limit_mass: float


def mass_loss_check(
    policy: Policy,
    params: ModelParams,
    state: MarketState | None = None,
) -> MassLossReport:
    """Check the escape-to-infinity condition and estimate retained mass."""
    c_tail = policy.tail_effort()
    stable = is_stable(policy, params)
    if state is None:
        state = solve_stationary(policy, params)
    if stable or c_tail <= 0.0:
        limit = 1.0
    else:
        limit = 1.0 + (params.eta - c_tail * state.c_bar) / (c_tail * c_tail)
    return MassLossReport(stable=stable, tail_effort=c_tail, c_bar=state.c_bar, limit_mass=limit)
