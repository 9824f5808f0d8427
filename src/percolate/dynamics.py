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
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .model import ModelParams, Policy, PrecisionMeasure
from .stationary import MarketState, balance_residual, is_stable, solve_stationary

logger = logging.getLogger(__name__)

# Absolute and relative tolerances of the measure-flow integrator.
ODE_ATOL = 1e-10
ODE_RTOL = 1e-8
# Most observation steps (t_end / dt_out) one integration records; a finer
# grid is an input error rather than an allocation failure.
MAX_SNAPSHOTS = 100_000


def __getattr__(name: str):
    """Import scipy's ``solve_ivp`` on first use: only the measure flow needs scipy.

    The first read of ``solve_ivp`` binds it into the module globals, so later
    reads, and a caller that rebinds the name, see an ordinary attribute.
    """
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()["solve_ivp"] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    Snapshots on the observation grid (every ``dt_out``, default t_end / 50,
    at most ``MAX_SNAPSHOTS`` steps) are checked for negativity: undershoots down to
    -1e3 * ODE_ATOL are clipped to zero and counted; anything worse raises.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValidationError(f"t_end must be finite and positive, got {t_end}")
    if dt_out is None:
        dt_out = t_end / 50.0
    if not (math.isfinite(dt_out) and dt_out > 0.0):
        raise ValidationError(f"dt_out must be finite and positive, got {dt_out}")
    if t_end / dt_out > MAX_SNAPSHOTS:
        raise ValidationError(
            f"observation grid of t_end / dt_out = {t_end / dt_out:.3g} steps exceeds {MAX_SNAPSHOTS}"
        )
    policy.validate_bounds(params)
    if mu0.weights.size != params.n_max + 1:
        raise ValidationError("initial measure grid does not match n_max")

    def flow(_t, y):
        res, overflow = balance_residual(y[:-1], policy, params)
        return np.append(res, overflow - params.eta * y[-1])

    t_eval = np.arange(0.0, t_end + dt_out * 0.5, dt_out)
    if t_eval[-1] < t_end:
        t_eval = np.append(t_eval, t_end)

    y0 = np.append(mu0.weights, mu0.tail_mass)
    # Through the module attribute: a bare name is unbound until the first read.
    sol = sys.modules[__name__].solve_ivp(
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
    for col in sol.y.T:  # grid weights, then the tail compartment
        neg = col < 0.0
        if np.any(neg):
            worst = float(col[neg].min())
            if worst < clip_floor:
                raise SolverError(f"measure flow produced negative mass {worst:.3e}")
            clip_count += int(neg.sum())
            clip_magnitude = max(clip_magnitude, -worst)
            col = np.where(neg, 0.0, col)
        measures.append(PrecisionMeasure(col[:-1], float(col[-1])))
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
