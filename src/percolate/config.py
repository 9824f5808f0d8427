"""Numerical tolerances and solver knobs, grouped in one immutable object."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances shared by the stationary solver, ODE integrator and value iteration.

    root_tol         |g| acceptance bound for the average-effort fixed point
    residual_tol     sup-norm target for the stationary balance residual
    mass_tol         allowed deviation of total mass from 1
    value_tol        true-error target for value iteration (contraction-scaled stop)
    indifference_tol half-width of the band around zero treated as exact indifference
                     when reading the switching sequence
    ode_atol/ode_rtol  absolute/relative tolerances for measure-flow integration
    """

    root_tol: float = 1e-12
    residual_tol: float = 1e-10
    mass_tol: float = 1e-8
    value_tol: float = 1e-10
    indifference_tol: float = 1e-9
    ode_atol: float = 1e-10
    ode_rtol: float = 1e-8

    def with_(self, **kwargs) -> "SolverConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = SolverConfig()
