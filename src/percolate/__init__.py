"""Solver and simulator for stationary information-sharing equilibria.

A continuum of agents learns about a latent Gaussian state by exchanging
conditionally independent signals through random pairwise meetings.  The
package solves the stationary distribution of signal counts induced by a
search-effort policy, computes best responses to a stationary market via
value iteration, locates trigger-policy equilibria, evaluates subsidy and
public-signal interventions, and cross-validates everything against a
finite-population event simulator.
"""

from __future__ import annotations

from .errors import SolverError, ValidationError
from .model import (
    CostSpec,
    ModelParams,
    Policy,
    PrecisionMeasure,
    ValueFunction,
    cond_variance,
    cross_section_params,
    exit_utility,
    gamma_coeff,
    load_params,
)
from .stationary import MarketState, fosd_compare, solve_stationary
from .dynamics import Trajectory, integrate
from .best_response import BestResponse, minimal_search_test, solve_value, trigger_bounds
from .equilibrium import (
    EquilibriumReport,
    active_equilibrium_exists,
    correspondence,
    find_equilibria,
    pareto_rank,
)
from .interventions import (
    Bisection,
    EducationWitness,
    InterventionOutcome,
    SubsidyWitness,
    apply_education,
    apply_subsidy,
    find_education_witness,
    find_subsidy_witness,
    welfare_compare,
)
from .simulator import SimConfig, SimOutput, ValueEstimate, estimate_value, run

__version__ = "0.1.0"

__all__ = [
    "SolverError",
    "ValidationError",
    "CostSpec",
    "ModelParams",
    "Policy",
    "PrecisionMeasure",
    "ValueFunction",
    "cond_variance",
    "cross_section_params",
    "exit_utility",
    "gamma_coeff",
    "load_params",
    "MarketState",
    "fosd_compare",
    "solve_stationary",
    "Trajectory",
    "integrate",
    "BestResponse",
    "minimal_search_test",
    "solve_value",
    "trigger_bounds",
    "EquilibriumReport",
    "active_equilibrium_exists",
    "correspondence",
    "find_equilibria",
    "pareto_rank",
    "Bisection",
    "EducationWitness",
    "InterventionOutcome",
    "SubsidyWitness",
    "apply_education",
    "apply_subsidy",
    "find_education_witness",
    "find_subsidy_witness",
    "welfare_compare",
    "SimConfig",
    "SimOutput",
    "ValueEstimate",
    "estimate_value",
    "run",
    "__version__",
]
