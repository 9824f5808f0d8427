"""Model primitives: Gaussian signal kernel, costs, measures, policies, parameters.

Conventions used throughout the package:

* A "precision" is the number of conditionally independent signals an agent
  has pooled.  Arrays indexed by precision always start at 0, so an array of
  length ``n_max + 1`` covers precisions ``0..n_max``.  Entry distributions
  may put mass at precision 0 (an agent holding no signal yet).
* Signals are jointly Gaussian with the latent state: unit variance,
  correlation ``rho`` with the state, pairwise correlation ``rho**2``.
* The exit payoff is ``u(n) = -cond_variance(n + public_signals)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ValidationError


# ---------------------------------------------------------------------------
# Gaussian signal kernel
# ---------------------------------------------------------------------------

def gamma_coeff(k: int | np.ndarray, rho: float) -> float | np.ndarray:
    """Pooling weight 1 + rho^2 (k - 1) of a block of k signals.

    For k = 0 this evaluates to 1 - rho^2; the pooling formula still applies
    because a zero-precision posterior mean is identically 0.
    """
    out = 1.0 + rho * rho * (np.asarray(k, dtype=float) - 1.0)
    if np.isscalar(k) or out.ndim == 0:
        return float(out)
    return out


def cond_variance(n: int | np.ndarray, rho: float) -> float | np.ndarray:
    """Posterior variance of the state given n exchangeable signals.

    v(n) = (1 - rho^2) / gamma(n) = (1 - rho^2) / (1 + rho^2 (n - 1)).  No
    branch is needed at n = 0: gamma(0) is computed as 1 + rho^2 * (-1.0),
    which is exactly the numerator 1 - rho^2, nonzero for rho < 1, so v(0)
    is exactly the prior variance 1.0.
    """
    return (1.0 - rho * rho) / gamma_coeff(n, rho)


def cross_section_params(n: int, y: float, rho: float) -> tuple[float, float]:
    """Conditional law of a precision-n posterior mean given the state y.

    Across agents holding n signals, posterior means are Gaussian with

        mean = n rho^2 y / gamma(n) = (1 - v(n)) y,
        var  = n rho^2 (1 - rho^2) / gamma(n)^2.

    For n = 0 both are 0 (the empty posterior mean is the prior mean).
    """
    if n < 0:
        raise ValidationError(f"precision must be nonnegative, got {n}")
    if n == 0:
        return 0.0, 0.0
    g = gamma_coeff(n, rho)
    mean = n * rho * rho * y / g
    var = n * rho * rho * (1.0 - rho * rho) / (g * g)
    return mean, var


# ---------------------------------------------------------------------------
# Cost of search effort
# ---------------------------------------------------------------------------

# The fields a scenario's ``cost`` object may hold, by cost type.
_COST_FIELDS = {"linear": {"type", "kappa"}, "tabulated": {"type", "points"}}


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Flow cost of search effort.

    kind == "linear":     K(c) = kappa * c.
    kind == "tabulated":  piecewise-linear interpolation of (c, K) knots with
                          nondecreasing, convex values; K(0) = 0 is implied by
                          the first knot when it is (0, 0).
    """

    kind: str = "linear"
    kappa: float = 0.1
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "linear":
            if not (math.isfinite(self.kappa) and self.kappa >= 0):
                raise ValidationError(f"linear cost slope must be finite and >= 0, got {self.kappa}")
        elif self.kind == "tabulated":
            pts = self.points
            if len(pts) < 2:
                raise ValidationError("tabulated cost needs at least two knots")
            if not all(math.isfinite(v) for p in pts for v in p):
                raise ValidationError("tabulated cost knots must be finite")
            cs = [p[0] for p in pts]
            ks = [p[1] for p in pts]
            if any(b <= a for a, b in zip(cs, cs[1:])):
                raise ValidationError("tabulated cost knots must have strictly increasing effort")
            slopes = [(k1 - k0) / (c1 - c0) for (c0, k0), (c1, k1) in zip(pts, pts[1:])]
            if any(s < -1e-12 for s in slopes):
                raise ValidationError("tabulated cost must be nondecreasing")
            if any(s1 < s0 - 1e-12 for s0, s1 in zip(slopes, slopes[1:])):
                raise ValidationError("tabulated cost must be convex")
        else:
            raise ValidationError(f"unknown cost kind {self.kind!r}")

    # -- evaluation ---------------------------------------------------------

    def cost(self, c: float) -> float:
        """Flow cost K(c)."""
        if self.kind == "linear":
            return self.kappa * c
        cs = np.array([p[0] for p in self.points])
        ks = np.array([p[1] for p in self.points])
        if c < cs[0] - 1e-12 or c > cs[-1] + 1e-12:
            raise ValidationError(f"effort {c} outside tabulated cost domain [{cs[0]}, {cs[-1]}]")
        return float(np.interp(c, cs, ks))

    def marginal_right(self, c: float) -> float:
        """Right-hand derivative K'(c+); at the domain's top knot, the last slope."""
        if self.kind == "linear":
            return self.kappa
        pts = self.points
        for (c0, k0), (c1, k1) in zip(pts, pts[1:]):
            if c < c1 - 1e-12:
                return (k1 - k0) / (c1 - c0)
        (c0, k0), (c1, k1) = pts[-2], pts[-1]
        return (k1 - k0) / (c1 - c0)

    def with_subsidy(self, delta: float) -> "CostSpec":
        """Cost net of a proportional effort subsidy: K(c) - delta * c.

        The subsidy may not exceed the least marginal cost (kappa, or the
        first slope of a convex table), else net cost would fall with effort.
        """
        if delta == 0.0:
            return self
        floor = self.kappa if self.kind == "linear" else self.marginal_right(self.points[0][0])
        if delta > floor:
            raise ValidationError(f"subsidy {delta!r} exceeds the marginal cost of effort {floor!r}")
        if self.kind == "linear":
            return CostSpec(kind="linear", kappa=self.kappa - delta)
        shifted = tuple((c, k - delta * c) for c, k in self.points)
        return CostSpec(kind="tabulated", points=shifted)

    def candidate_efforts(self, c_lo: float, c_hi: float) -> np.ndarray:
        """Effort levels that can attain the inner maximization.

        The value objective is a ratio of functions affine in c on each cost
        segment, hence monotone there, so only segment endpoints (clipped to
        the admissible interval) can be optimal.  Linear cost reduces to the
        two interval endpoints.
        """
        if self.kind == "linear":
            return np.array([c_lo, c_hi]) if c_hi > c_lo else np.array([c_lo])
        knots = [c for c, _ in self.points if c_lo < c < c_hi]
        return np.array(sorted({c_lo, *knots, c_hi}))

    def to_dict(self) -> dict:
        if self.kind == "linear":
            return {"type": "linear", "kappa": self.kappa}
        return {"type": "tabulated", "points": [list(p) for p in self.points]}

    @staticmethod
    def from_dict(d: dict) -> "CostSpec":
        if not isinstance(d, dict):
            raise ValidationError(f"cost must be an object, got {d!r}")
        kind = d.get("type", "linear")
        if not isinstance(kind, str) or kind not in _COST_FIELDS:
            raise ValidationError(f"unknown cost type {kind!r}")
        unknown = set(d) - _COST_FIELDS[kind]
        if unknown:
            raise ValidationError(f"unknown {kind} cost fields: {sorted(unknown)}")
        if kind == "linear":
            return CostSpec(kind="linear", kappa=_real(d.get("kappa"), "kappa"))
        raw, seq = d.get("points"), (list, tuple)
        if not isinstance(raw, seq) or not all(isinstance(p, seq) and len(p) == 2 for p in raw):
            raise ValidationError("tabulated cost points must be a list of [effort, cost] pairs")
        points = tuple((_real(c, "cost knot"), _real(k, "cost knot")) for c, k in raw)
        return CostSpec(kind="tabulated", points=points)


# ---------------------------------------------------------------------------
# Measures over precisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PrecisionMeasure:
    """Nonnegative measure over precisions 0..n_max plus truncated tail mass.

    ``weights[k]`` is the mass at precision k; ``tail_mass`` accounts for mass
    pushed beyond the grid by truncation.  Probability measures have total
    mass 1; effort-weighted measures have total mass equal to average effort.
    """

    weights: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValidationError("measure weights must be a 1-d array over precisions 0..n_max")
        if not np.isfinite(w).all():
            raise ValidationError("measure weights must be finite")
        if float(w.min()) < -1e-12:
            raise ValidationError(f"measure weights must be nonnegative, got min {w.min()}")
        w = np.maximum(w, 0.0)
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)
        if not (math.isfinite(self.tail_mass) and self.tail_mass >= -1e-15):
            raise ValidationError(f"tail mass must be finite and nonnegative, got {self.tail_mass}")

    @property
    def n_max(self) -> int:
        return self.weights.size - 1

    def grid_mass(self) -> float:
        return float(self.weights.sum())

    def total_mass(self) -> float:
        return self.grid_mass() + self.tail_mass

    def tail_sums(self) -> np.ndarray:
        """T[k] = mass at precisions >= k (tail_mass included in every entry)."""
        rev = np.cumsum(self.weights[::-1])[::-1]
        return rev + self.tail_mass

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    @staticmethod
    def point_mass(n: int, n_max: int) -> "PrecisionMeasure":
        if not 0 <= n <= n_max:
            raise ValidationError(f"point mass location {n} outside 0..{n_max}")
        w = np.zeros(n_max + 1)
        w[n] = 1.0
        return PrecisionMeasure(w)

    @staticmethod
    def from_mapping(mapping: dict[int, float], n_max: int) -> "PrecisionMeasure":
        w = np.zeros(n_max + 1)
        for k, v in mapping.items():
            k = int(k)
            if not 0 <= k <= n_max:
                raise ValidationError(f"precision {k} outside 0..{n_max}")
            w[k] = float(v)
        return PrecisionMeasure(w)


# ---------------------------------------------------------------------------
# Search policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Policy:
    """Search-effort profile over precisions 0..n_max."""

    efforts: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.efforts, dtype=float)
        object.__setattr__(self, "efforts", e)
        e.setflags(write=False)
        if not np.all(np.isfinite(e) & (e >= 0)):
            raise ValidationError("efforts must be finite and nonnegative")

    def tail_effort(self) -> float:
        return float(self.efforts[-1])

    @staticmethod
    def trigger_policy(n: int, params: "ModelParams") -> "Policy":
        """Effort c_hi at precisions < n, c_lo at precisions >= n (including 0)."""
        if not isinstance(n, numbers.Integral) or n < 0:
            raise ValidationError(f"trigger must be a nonnegative integer, got {n!r}")
        e = np.full(params.n_max + 1, params.c_lo)
        e[: min(n, params.n_max + 1)] = params.c_hi
        return Policy(e)

    @staticmethod
    def constant(c: float, params: "ModelParams") -> "Policy":
        policy = Policy(np.full(params.n_max + 1, float(c)))
        policy.validate_bounds(params)
        return policy

    @staticmethod
    def from_list(values: Sequence[float], params: "ModelParams") -> "Policy":
        """Expand efforts given for precisions 1..len(values), at most n_max of
        them; the tail repeats the last value and precision 0 copies precision 1."""
        vals = [_real(v, f"effort {i}") for i, v in enumerate(values, start=1)]
        if not vals:
            raise ValidationError("effort list must be nonempty")
        if len(vals) > params.n_max:
            raise ValidationError(f"effort list of length {len(vals)} exceeds n_max={params.n_max}")
        e = np.full(params.n_max + 1, vals[-1])
        e[1 : len(vals) + 1] = vals
        e[0] = vals[0]
        policy = Policy(e)
        policy.validate_bounds(params)
        return policy

    def validate_bounds(self, params: "ModelParams") -> None:
        if self.efforts.size != params.n_max + 1:
            raise ValidationError(
                f"policy has {self.efforts.size} efforts, the grid needs n_max + 1 = {params.n_max + 1}"
            )
        lo, hi = params.c_lo, params.c_hi
        if np.any(self.efforts < lo - 1e-12) or np.any(self.efforts > hi + 1e-12):
            raise ValidationError(f"efforts leave the admissible interval [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Value functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Discounted value by precision, with a closed-form tail continuation.

    ``values[n]`` is the value at precision n for n = 0..n_max.  Beyond the
    grid the value is approximated by the stop-searching continuation
    (eta' * u(n) - K(c_lo)) / (r + eta'), or by ``values[n_max]`` where that
    is larger; ``tail_value`` stores its limit.
    """

    values: np.ndarray
    tail_value: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        v.setflags(write=False)


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

# Largest accepted grid truncation.  Solver work grows with n_max squared
# (the stationary closed form's table stops at a fixed trigger size), so far
# larger grids are out of reach anyway; checking up front turns an absurd
# value into an input error instead of a failed allocation.
N_MAX_LIMIT = 2**16


def _check_n_max(n_max: int) -> None:
    """Reject a grid truncation outside 2..N_MAX_LIMIT, before any grid array is built."""
    if n_max < 2:
        raise ValidationError(f"n_max must be at least 2, got {n_max}")
    if n_max > N_MAX_LIMIT:
        raise ValidationError(f"n_max must be at most {N_MAX_LIMIT}, got {n_max}")


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Primitives of the market.

    eta             replacement (reset-to-entry) intensity
    eta_prime       exit intensity
    r               discount rate
    rho             signal-state correlation, 0 <= rho < 1
    c_lo, c_hi      admissible effort interval
    cost            flow cost of effort
    pi              entry distribution over precisions (may charge 0)
    n_max           grid truncation
    public_signals  free signals granted at exit (shift of the exit payoff)
    subsidy         proportional effort subsidy (reduces marginal cost)
    """

    eta: float = 1.0
    eta_prime: float = 1.0
    r: float = 0.1
    rho: float = 0.5
    c_lo: float = 0.0
    c_hi: float = 1.0
    cost: CostSpec = field(default_factory=CostSpec)
    pi: PrecisionMeasure | None = None
    n_max: int = 256
    public_signals: int = 0
    subsidy: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta", "eta_prime", "r", "rho", "c_lo", "c_hi", "subsidy"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta <= 0 or self.eta_prime <= 0 or self.r <= 0:
            raise ValidationError("eta, eta_prime and r must be positive")
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError(f"rho must lie in [0, 1), got {self.rho}")
        if not 0.0 <= self.c_lo <= self.c_hi:
            raise ValidationError("need 0 <= c_lo <= c_hi")
        if self.c_hi <= 0:
            raise ValidationError("c_hi must be positive")
        _check_n_max(self.n_max)
        if self.public_signals < 0:
            raise ValidationError("public_signals must be nonnegative")
        if self.subsidy < 0:
            raise ValidationError("subsidy must be nonnegative")
        if self.pi is None:
            object.__setattr__(self, "pi", PrecisionMeasure.point_mass(1, self.n_max))
        pi = self.pi
        if pi.weights.size != self.n_max + 1:
            raise ValidationError("entry measure grid does not match n_max")
        if abs(pi.total_mass() - 1.0) > 1e-9:
            raise ValidationError(f"entry measure must have mass 1, got {pi.total_mass():.12f}")
        if pi.tail_mass != 0.0:
            raise ValidationError("entry measure cannot carry tail mass")
        if self.cost.kind == "tabulated":
            lo, hi = self.cost.points[0][0], self.cost.points[-1][0]
            if self.c_lo < lo - 1e-12 or self.c_hi > hi + 1e-12:
                raise ValidationError(
                    f"tabulated cost knots [{lo}, {hi}] do not cover [c_lo, c_hi] = [{self.c_lo}, {self.c_hi}]"
                )
        self.effective_cost()  # validates that the subsidy keeps cost admissible

    # -- derived quantities --------------------------------------------------

    def effective_cost(self) -> CostSpec:
        """Cost net of the effort subsidy."""
        return self.cost.with_subsidy(self.subsidy)

    def with_(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["cost"] = self.cost.to_dict()
        out["pi"] = {str(k): float(self.pi.weights[k]) for k in self.pi.support()}
        return out

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Exit payoff
# ---------------------------------------------------------------------------

def exit_utility(params: ModelParams, n: int | np.ndarray) -> float | np.ndarray:
    """Exit payoff -cond_variance(n + public_signals) at precision n.

    The payoff increases to its least upper bound 0 as the precision grows.
    """
    return -cond_variance(np.asarray(n) + params.public_signals, params.rho)


# ---------------------------------------------------------------------------
# Scenario (de)serialization
# ---------------------------------------------------------------------------

_SCENARIO_FIELDS = {f.name for f in fields(ModelParams)}


def _real(value, name: str) -> float:
    """A scenario number; strings, booleans and null are rejected (finiteness is checked later)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """A scenario count: a finite number with no fractional part."""
    if not math.isfinite(_real(value, name)) or value != int(value):
        raise ValidationError(f"{name} must be a finite integer, got {value!r}")
    return int(value)


def _parse_pi(raw, n_max: int) -> PrecisionMeasure:
    if isinstance(raw, dict):
        mapping = {}
        for k, v in raw.items():
            try:
                n = int(k)
            except ValueError as exc:
                raise ValidationError(f"pi precision {k!r} is not an integer") from exc
            if n in mapping:
                raise ValidationError(f"pi names precision {n} twice (key {k!r})")
            mapping[n] = _real(v, f"pi[{k!r}]")
        return PrecisionMeasure.from_mapping(mapping, n_max)
    if isinstance(raw, (list, tuple)):
        w = np.zeros(n_max + 1)
        if len(raw) > n_max:
            raise ValidationError(f"entry list of length {len(raw)} exceeds n_max={n_max}")
        for i, v in enumerate(raw, start=1):
            w[i] = _real(v, f"pi[{i - 1}]")
        return PrecisionMeasure(w)
    raise ValidationError("pi must be a list (precisions 1..len) or a mapping {precision: weight}")


def load_params(raw: Mapping) -> ModelParams:
    """Build ModelParams from a scenario mapping (the CLI reads it from a JSON file).

    Recognized fields are those of ``ModelParams``, whose defaults fill every
    field the scenario leaves out.  ``pi`` is either a list of weights for
    precisions 1..len or a mapping from precision (0 allowed) to weight.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError(f"a scenario is a mapping of fields, got {type(raw).__name__}")
    unknown = set(raw) - _SCENARIO_FIELDS
    if unknown:
        raise ValidationError(f"unknown scenario fields: {sorted(unknown)}")
    # Counts are integers, the other numbers reals; cost and pi are parsed below.
    given = {
        f.name: (_integer if f.type == "int" else _real)(raw[f.name], f.name)
        for f in fields(ModelParams)
        if f.name in raw and f.name not in ("cost", "pi")
    }
    n_max = given.get("n_max", ModelParams.n_max)
    _check_n_max(n_max)
    if "cost" in raw:
        given["cost"] = CostSpec.from_dict(raw["cost"])
    if "pi" in raw:
        given["pi"] = _parse_pi(raw["pi"], n_max)
    return ModelParams(**given)
