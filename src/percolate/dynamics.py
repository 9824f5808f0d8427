"""Time evolution of the precision distribution under a fixed policy.

The grid weights follow the measure flow

    d mu_n / dt = eta (pi_n - mu_n) + (nu * nu)_n - nu_n nu(N),

with convolution overflow past the grid routed into an explicit tail
compartment that decays at the replacement intensity.  Total mass (grid plus
tail) then relaxes to 1, and the truncated system conserves mass up to the
overflow that the tail compartment accounts for.

The flow is integrated by ``solve_ivp``, a private step-for-step port of
scipy's explicit Runge-Kutta 5(4) solver (``solve_ivp(method="RK45")`` with
``t_eval``), so the package needs numpy alone and gives scipy's numbers bit
for bit.
"""

from __future__ import annotations

import logging
import math
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


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980) with Shampine's quartic dense output (Math. Comp. 46, 1986), as scipy
# 1.17's RK45 writes it: nodes C, stages A, weights B, error weights E and
# interpolant coefficients P.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
               [44/45, -56/15, 32/9, 0, 0], [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
               [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432], [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# Step controller: safety factor, bounds on the step-size ratio, and the error
# exponent -1 / (error order + 1) of the embedded fourth-order estimate.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 5


@dataclass(frozen=True, eq=False)
class OdeResult:
    """Solution on ``t_eval`` (``y`` is states x times) and the work that produced it."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str
    accepted_steps: int
    rejected_steps: int


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, t_eval, atol, rtol) -> OdeResult:
    """Integrate y' = fun(t, y) forward over ``t_span`` and report y on ``t_eval``.

    A step-for-step port of scipy 1.17's ``solve_ivp(method="RK45", t_eval=...)``
    with no maximum step: the same initial step (Hairer, Norsett & Wanner,
    *Solving ODEs I*, II.4), step controller and dense output.  Every numpy call
    keeps scipy's operands and order, so ``t``, ``y`` and ``nfev`` match scipy's
    bit for bit.  A step below ten ulps of t fails, as in scipy; so does a NaN
    first step, on which scipy never returns.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0).astype(float, copy=False)
    t_eval = np.asarray(t_eval)
    K = np.empty((_C.size + 1, y.size))
    fy = fun(t, y)
    # Initial step: an explicit Euler trial step estimates the second derivative.
    interval = abs(t_bound - t)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _rms((fun(t + h0, y + h0 * fy) - fy) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval)

    # Empty leading pieces make the stacked result an array even if no step succeeds.
    ts, ys = [t_eval[:0]], [np.empty((y.size, 0))]
    i_eval = accepted = rejected = 0
    success = True
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        # Retry until a step is accepted or too small to take.  A NaN step (from a
        # non-finite first derivative) fails here, where scipy would loop forever.
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy
            for s in range(1, _C.size):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = K[-1] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        else:
            success = False
            break
        if error_norm == 0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        h_abs *= min(1, factor) if step_rejected else factor
        accepted += 1
        # Quartic interpolant on the accepted step, evaluated at the t_eval points it covers.
        i_new = np.searchsorted(t_eval, t_new, side="right")
        if i_new > i_eval:
            p = np.cumprod(np.tile((t_eval[i_eval:i_new] - t) / h, (_P.shape[1], 1)), axis=0)
            ys.append(h * np.dot(K.T.dot(_P), p) + y[:, None])
            ts.append(t_eval[i_eval:i_new])
            i_eval = i_new
        t, y, fy = t_new, y_new, f_new
    # Two evaluations choose the first step; each step tried takes six.
    nfev = 2 + 6 * (accepted + rejected)
    message = ("The solver successfully reached the end of the integration interval." if success
               else "Required step size is less than spacing between numbers.")
    return OdeResult(np.hstack(ts), np.hstack(ys), nfev, success, message, accepted, rejected)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots of the measure flow on a fixed observation grid."""

    times: np.ndarray
    measures: list[PrecisionMeasure]
    mass: np.ndarray
    clip_count: int
    clip_magnitude: float
    # Integrator work: right-hand-side evaluations, accepted and rejected steps.
    rhs_evals: int
    accepted_steps: int
    rejected_steps: int

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

    Uses ``solve_ivp``, the adaptive Dormand-Prince 5(4) scheme, at tight tolerances.
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
    # The half-step margin admits one point past t_end when dt_out does not divide it.
    t_eval = t_eval[t_eval <= t_end]
    if t_eval[-1] < t_end:
        t_eval = np.append(t_eval, t_end)

    y0 = np.append(mu0.weights, mu0.tail_mass)
    # The bare global name, read at call time, so a rebinding of
    # ``dynamics.solve_ivp`` (a tracing wrapper) sees every integration.
    sol = solve_ivp(flow, (0.0, t_end), y0, t_eval=t_eval, atol=ODE_ATOL, rtol=ODE_RTOL)
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
        rhs_evals=sol.nfev,
        accepted_steps=sol.accepted_steps,
        rejected_steps=sol.rejected_steps,
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
