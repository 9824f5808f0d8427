"""Model primitives: Gaussian signal kernel, costs, measures, policies, parameters.

Conventions used throughout the package:

* A "precision" is the number of conditionally independent signals an agent
  has pooled.  Arrays indexed by precision always start at 0, so an array of
  length ``n_max + 1`` covers precisions ``0..n_max``.  Entry distributions
  may put mass at precision 0 (an agent holding no signal yet).
* Signals are jointly Gaussian with the latent state: unit variance,
  correlation ``rho`` with the state, pairwise correlation ``rho**2``.
* The exit payoff is ``u(n) = -cond_variance(n)`` unless a bounded increasing
  concave table is supplied.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

logger = logging.getLogger(__name__)


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

    v(n) = (1 - rho^2) / (1 + rho^2 (n - 1)), with v(0) = 1.
    """
    n_arr = np.asarray(n, dtype=float)
    out = np.where(n_arr == 0.0, 1.0, (1.0 - rho * rho) / (1.0 + rho * rho * (n_arr - 1.0)))
    if np.isscalar(n) or n_arr.ndim == 0:
        return float(out)
    return out


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
        """Cost net of a proportional effort subsidy: K(c) - delta * c."""
        if delta == 0.0:
            return self
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
        if kind == "linear":
            return CostSpec(kind="linear", kappa=_real(d.get("kappa"), "kappa"))
        if kind == "tabulated":
            raw, seq = d.get("points"), (list, tuple)
            if not isinstance(raw, seq) or not all(isinstance(p, seq) and len(p) == 2 for p in raw):
                raise ValidationError("tabulated cost points must be a list of [effort, cost] pairs")
            points = tuple((_real(c, "cost knot"), _real(k, "cost knot")) for c, k in raw)
            return CostSpec(kind="tabulated", points=points)
        raise ValidationError(f"unknown cost type {kind!r}")


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
        if w.size and float(w.min()) < -1e-12:
            raise ValidationError(f"measure weights must be nonnegative, got min {w.min()}")
        w = np.maximum(w, 0.0)
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)
        if self.tail_mass < -1e-15:
            raise ValidationError(f"tail mass must be nonnegative, got {self.tail_mass}")

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

    def support(self, atol: float = 0.0) -> np.ndarray:
        return np.flatnonzero(self.weights > atol)

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


def effort_weighted(mu: PrecisionMeasure, policy: "Policy") -> PrecisionMeasure:
    """Effort-weighted measure with weights C_k * mu_k; total mass is average effort.

    Truncated tail mass does not contribute: agents beyond the grid are
    excluded from the searching population (logged when non-negligible).
    """
    if mu.tail_mass > 1e-8:
        logger.warning("effort weighting drops tail mass %.3e beyond the grid", mu.tail_mass)
    return PrecisionMeasure(policy.efforts * mu.weights, 0.0)


# ---------------------------------------------------------------------------
# Search policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Policy:
    """Search-effort profile over precisions 0..n_max.

    ``trigger = N`` marks the two-level profile with effort c_hi at precisions
    strictly below N and c_lo at N and above; the zero-precision effort also
    follows that rule.  Expanded list policies carry ``trigger = None`` and
    assign precision 0 the same effort as precision 1.
    """

    efforts: np.ndarray
    trigger: int | None = None

    def __post_init__(self) -> None:
        e = np.asarray(self.efforts, dtype=float)
        object.__setattr__(self, "efforts", e)
        e.setflags(write=False)
        if np.any(e < 0):
            raise ValidationError("efforts must be nonnegative")
        if self.trigger is not None:
            n = int(self.trigger)
            if n < 0:
                raise ValidationError(f"trigger must be nonnegative, got {n}")
            object.__setattr__(self, "trigger", n)

    @property
    def n_max(self) -> int:
        return self.efforts.size - 1

    def flat_tail_index(self) -> int:
        """Smallest N >= 1 with constant effort at all precisions >= N."""
        e = self.efforts
        n = e.size - 1
        idx = n
        while idx > 1 and e[idx - 1] == e[n]:
            idx -= 1
        return idx

    def tail_effort(self) -> float:
        return float(self.efforts[-1])

    @staticmethod
    def trigger_policy(n: int, params: "ModelParams") -> "Policy":
        """Effort c_hi at precisions < n, c_lo at precisions >= n (including 0)."""
        if n < 0:
            raise ValidationError(f"trigger must be nonnegative, got {n}")
        e = np.full(params.n_max + 1, params.c_lo)
        e[: min(n, params.n_max + 1)] = params.c_hi
        return Policy(e, trigger=n)

    @staticmethod
    def constant(c: float, params: "ModelParams") -> "Policy":
        params.check_effort(c)
        return Policy(np.full(params.n_max + 1, float(c)))

    @staticmethod
    def from_list(values: Sequence[float], params: "ModelParams") -> "Policy":
        """Expand efforts given for precisions 1..len(values); the tail repeats
        the last value and precision 0 copies precision 1."""
        vals = [_real(v, f"effort {i}") for i, v in enumerate(values, start=1)]
        if not vals:
            raise ValidationError("effort list must be nonempty")
        for v in vals:
            params.check_effort(v)
        e = np.full(params.n_max + 1, vals[-1])
        upto = min(len(vals), params.n_max)
        e[1 : upto + 1] = vals[:upto]
        e[0] = vals[0]
        return Policy(e)

    def validate_bounds(self, params: "ModelParams") -> None:
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
    (eta' * u(n) - K(c_lo)) / (r + eta'); ``tail_value`` stores its limit.
    """

    values: np.ndarray
    tail_value: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def n_max(self) -> int:
        return self.values.size - 1


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

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
    u_table         optional bounded increasing concave exit payoff by precision
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
    u_table: tuple[float, ...] | None = None

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
        if self.n_max < 2:
            raise ValidationError("n_max must be at least 2")
        if self.public_signals < 0:
            raise ValidationError("public_signals must be nonnegative")
        if self.subsidy < 0:
            raise ValidationError("subsidy must be nonnegative")
        if self.pi is None:
            object.__setattr__(self, "pi", PrecisionMeasure.point_mass(1, self.n_max))
        pi = self.pi
        if pi.weights.size != self.n_max + 1:
            raise ValidationError("entry measure grid does not match n_max")
        if not np.all(np.isfinite(pi.weights)) or np.any(pi.weights < 0):
            raise ValidationError("entry weights must be finite and nonnegative")
        if abs(pi.total_mass() - 1.0) > 1e-9:
            raise ValidationError(f"entry measure must have mass 1, got {pi.total_mass():.12f}")
        if pi.tail_mass != 0.0:
            raise ValidationError("entry measure cannot carry tail mass")
        if self.u_table is not None:
            t = tuple(float(v) for v in self.u_table)
            if len(t) < 2:
                raise ValidationError("u_table needs at least two entries")
            if not all(math.isfinite(v) for v in t):
                raise ValidationError("u_table entries must be finite")
            d = np.diff(t)
            if np.any(d < -1e-12):
                raise ValidationError("u_table must be nondecreasing")
            if np.any(np.diff(d) > 1e-12):
                raise ValidationError("u_table must be concave")
            object.__setattr__(self, "u_table", t)
        self.effective_cost()  # validates that the subsidy keeps cost admissible

    # -- derived quantities --------------------------------------------------

    def effective_cost(self) -> CostSpec:
        """Cost net of the effort subsidy."""
        c = self.cost.with_subsidy(self.subsidy)
        if c.kind == "linear" and c.kappa < 0:
            raise ValidationError("subsidy exceeds the marginal cost of effort")
        return c

    def check_effort(self, c: float) -> None:
        if not self.c_lo - 1e-12 <= c <= self.c_hi + 1e-12:
            raise ValidationError(f"effort {c} outside [{self.c_lo}, {self.c_hi}]")

    def with_(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        if self.u_table is not None:
            raise ValidationError("tabulated exit payoffs are an API-only hook and do not serialize")
        pi = {str(k): float(self.pi.weights[k]) for k in self.pi.support()}
        return {
            "eta": self.eta,
            "eta_prime": self.eta_prime,
            "r": self.r,
            "rho": self.rho,
            "c_lo": self.c_lo,
            "c_hi": self.c_hi,
            "cost": self.cost.to_dict(),
            "pi": pi,
            "n_max": self.n_max,
            "public_signals": self.public_signals,
            "subsidy": self.subsidy,
        }

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Exit payoff
# ---------------------------------------------------------------------------

def exit_utility(params: ModelParams, n: int | np.ndarray) -> float | np.ndarray:
    """Exit payoff at precision n, including any public signals granted at exit.

    Default payoff is -cond_variance(n + public_signals); a supplied table is
    read at the shifted index (clamped to its last entry beyond the table).
    """
    shifted = np.asarray(n) + params.public_signals
    if params.u_table is None:
        return -cond_variance(shifted, params.rho)
    t = np.asarray(params.u_table)
    idx = np.minimum(shifted, t.size - 1)
    out = t[idx]
    if np.isscalar(n):
        return float(out)
    return out


def u_bar(params: ModelParams) -> float:
    """Least upper bound of the exit payoff (its limit in the precision)."""
    if params.u_table is None:
        return 0.0
    return float(params.u_table[-1])


# ---------------------------------------------------------------------------
# Scenario (de)serialization
# ---------------------------------------------------------------------------

_SCENARIO_FIELDS = {
    "eta", "eta_prime", "r", "rho", "c_lo", "c_hi", "cost", "pi",
    "n_max", "public_signals", "subsidy",
}


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


def load_params(source: dict | str | Path, n_max_override: int | None = None) -> ModelParams:
    """Build ModelParams from a scenario dict or a JSON file path.

    Recognized fields: eta, eta_prime, r, rho, c_lo, c_hi, cost, pi, n_max,
    public_signals, subsidy.  ``pi`` is either a list of weights for
    precisions 1..len or a mapping from precision (0 allowed) to weight.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read scenario file {source!s}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario file {source!s} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"scenario file {source!s} must hold a JSON object")
    else:
        raw = dict(source)
    unknown = set(raw) - _SCENARIO_FIELDS
    if unknown:
        raise ValidationError(f"unknown scenario fields: {sorted(unknown)}")
    n_max = _integer(raw.get("n_max", 256), "n_max")
    if n_max_override is not None:
        n_max = int(n_max_override)
    if n_max < 2:  # before any grid array is built
        raise ValidationError(f"n_max must be at least 2, got {n_max}")
    cost = CostSpec.from_dict(raw["cost"]) if "cost" in raw else CostSpec()
    pi = _parse_pi(raw["pi"], n_max) if "pi" in raw else PrecisionMeasure.point_mass(1, n_max)
    return ModelParams(
        eta=_real(raw.get("eta", 1.0), "eta"),
        eta_prime=_real(raw.get("eta_prime", 1.0), "eta_prime"),
        r=_real(raw.get("r", 0.1), "r"),
        rho=_real(raw.get("rho", 0.5), "rho"),
        c_lo=_real(raw.get("c_lo", 0.0), "c_lo"),
        c_hi=_real(raw.get("c_hi", 1.0), "c_hi"),
        cost=cost,
        pi=pi,
        n_max=n_max,
        public_signals=_integer(raw.get("public_signals", 0), "public_signals"),
        subsidy=_real(raw.get("subsidy", 0.0), "subsidy"),
    )
