"""Finite-population event simulator and mean-field value estimator.

``run`` simulates P agents in continuous time, conditioned on a fixed
realization of the latent state:

* pairwise meetings arrive at total rate (S1^2 - S2) / (2P) with
  S1 = sum of efforts and S2 = sum of squared efforts (each unordered pair
  (i, j) meets at rate C_i C_j / P); both partners pool their signals;
* replacement shocks at rate eta per agent redraw the agent from the entry
  distribution (posterior means drawn conditionally on the state);
* exit shocks at rate eta' per agent hand the slot to a copy of a uniformly
  drawn agent, which keeps the cross-sectional distribution unchanged,
  mirroring the mean-field flow in which exits hit all precisions
  proportionally.

``estimate_value`` Monte Carlo-averages the single-agent discounted payoff in
the mean-field environment (jump intensity c * c_bar, jump law nu / c_bar,
exit at eta'), which is what the value iteration computes.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import accumulate, chain
from numbers import Integral

import numpy as np

from .errors import SolverError, ValidationError
from .model import (
    ModelParams,
    Policy,
    cross_section_params,
    exit_utility,
    gamma_coeff,
)
from .stationary import solve_stationary

# Most events a run or a value estimate may expect, bounded before any draw.
# At about 1.7 us an event (traced Monte Carlo workload, 2-core x86 host) that
# is half an hour of simulation; the README run and criterion 9 expect at most
# 1.25e7 events and the benchmark's Monte Carlo workload 1.5e6, while a tiny
# eta' or a huge eta would otherwise simulate for hours.  Past it the run fails.
MAX_EVENTS = 1e9

# Variates per block of each draw stream.  A run's random stream is fixed by
# this size, by the first u, e and n blocks being drawn at once in that order,
# and by each later block being drawn only when its stream runs out.
DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    population      number of live agents P
    horizon         simulated time span
    seed            PRNG seed (identical seeds give identical outputs)
    y_realization   fixed value of the latent state conditioned on
    replications    sample size for estimate_value (default: population)
    """

    population: int = 100_000
    horizon: float = 50.0
    seed: int = 0
    y_realization: float = 0.8
    replications: int | None = None


@dataclass(frozen=True, eq=False)
class SimOutput:
    """Snapshots and event counts of one simulation run."""

    times: np.ndarray  # 51 evenly spaced snapshot times, from 0 to exactly the horizon
    histograms: np.ndarray  # (n_times, n_max + 2); last column counts beyond-grid agents
    mean_sums: np.ndarray  # per-snapshot, per-bin sums of posterior means
    mean_square_sums: np.ndarray  # per-snapshot, per-bin sums of squared posterior means
    final_precisions: np.ndarray
    final_means: np.ndarray
    n_events: int
    n_matches: int
    n_resets: int
    n_exits: int
    n_pair_rejects: int
    n_precision_caps: int
    config: SimConfig

    def frequencies(self) -> np.ndarray:
        """Empirical precision distribution over the grid bins at the horizon."""
        h = self.histograms[-1]
        return h[:-1] / h.sum()

    def conditional_moments(self, at: int = -1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-bin (count, mean, unbiased variance) of posterior means at snapshot ``at``.

        Bins with no agents report NaN moments; variance needs at least two.
        Matched pairs and renormalization copies duplicate values inside a
        snapshot, so across-snapshot spreads of these moments are the honest
        error gauge rather than the naive independent-sample formula.
        """
        c = self.histograms[at].astype(float)
        s = self.mean_sums[at]
        q = self.mean_square_sums[at]
        safe = np.maximum(c, 1.0)
        m = np.where(c > 0, s / safe, np.nan)
        v = np.where(c > 1, (q - s * s / safe) / np.maximum(c - 1.0, 1.0), np.nan)
        return c, m, v


@dataclass(frozen=True)
class ValueEstimate:
    mean: float
    half_width: float  # 95% normal-approximation confidence half-width
    replications: int


def _streams(rng: np.random.Generator) -> tuple[Callable[[], float], ...]:
    """The uniform, exponential and normal draw streams (u, e, n) of one run.

    Each stream yields its variates one by one, in blocks of ``DRAW_BLOCK``:
    the three first blocks are drawn here, in that order, and each later
    block when its stream's previous block runs out, which it then frees.
    """

    def blocks(block: np.ndarray, fill: Callable[[int], np.ndarray]) -> Iterator[memoryview]:
        while True:
            yield memoryview(block)
            block = fill(DRAW_BLOCK)

    fills = (rng.random, rng.standard_exponential, rng.standard_normal)
    firsts = [fill(DRAW_BLOCK) for fill in fills]
    return tuple(chain.from_iterable(blocks(*b)).__next__ for b in zip(firsts, fills))


def _check_seed(seed) -> None:
    """Reject a seed that ``np.random.PCG64`` would refuse, before any draw."""
    if not isinstance(seed, Integral) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")


def _check_events(expected: float) -> None:
    """Raise SolverError if a simulation expects more than MAX_EVENTS events."""
    if not expected <= MAX_EVENTS:
        raise SolverError(
            f"the simulation expects up to {expected:.3g} events, "
            f"past MAX_EVENTS = {MAX_EVENTS:.0e}"
        )


def run(
    policy: Policy,
    params: ModelParams,
    cfg: SimConfig,
) -> SimOutput:
    """Simulate the finite-population market under ``policy``.

    Raises SolverError, before any draw, if the run may expect more than
    ``MAX_EVENTS`` events, and at a snapshot whose posterior means have
    diverged (their squares would overflow).
    """
    if not isinstance(cfg.population, Integral) or cfg.population < 2:
        raise ValidationError("population must be an integer of at least 2")
    if not 0.0 < cfg.horizon < math.inf:
        raise ValidationError("horizon must be positive and finite")
    if not math.isfinite(cfg.y_realization):
        raise ValidationError("y_realization must be finite")
    _check_seed(cfg.seed)
    policy.validate_bounds(params)

    P = cfg.population
    n_max = params.n_max
    cap = 4 * n_max
    eta = params.eta
    eta_prime = params.eta_prime
    rho = params.rho
    y = cfg.y_realization
    horizon = cfg.horizon
    # Meetings arrive at most at P c_max^2 / 2, resets at eta P and exits at eta' P.
    c_max = float(policy.efforts.max())
    _check_events(horizon * P * (c_max * c_max / 2.0 + eta + eta_prime))
    u, e, n = _streams(np.random.Generator(np.random.PCG64(cfg.seed)))

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
    # The last entry precision takes every u at or past the others' cumulative mass.
    entry_cum = list(accumulate(entry_probs[:-1]))

    def draw_entry() -> tuple[int, float]:
        j = bisect_right(entry_cum, u())
        n0 = entry_prec_values[j]
        m, sd = entry_mean_sd[j]
        return n0, (m + sd * n() if sd > 0.0 else m)

    # Agent state: precisions and means in flat int64 and float64 arrays that snapshots read.
    prec = array("q", [0]) * P
    mean = array("d", [0.0]) * P
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
        """Move agent ``a`` from its class, which is not ``new_c``, to ``new_c``."""
        old = agent_cls[a]
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

    reset_rate = eta * P
    exit_rate = eta_prime * P

    def rates() -> tuple[list[float], float, float]:
        """Running class sums of effort (the last is S1), the meeting and total event rates."""
        sums = []
        s1 = s2 = 0.0
        for c in range(n_cls):
            v = class_values[c]
            s1 += v * counts[c]
            s2 += v * v * counts[c]
            sums.append(s1)
        match_rate = (s1 * s1 - s2) / (2.0 * P)
        if match_rate < 0.0:
            match_rate = 0.0
        return sums, match_rate, match_rate + reset_rate + exit_rate

    last_cls = n_cls - 1

    def pick_searcher(sums: list[float]) -> int:
        # The first class whose running sum exceeds the target, else the last one.
        c = bisect_right(sums, u() * sums[-1], 0, last_cls)
        return pools[c][int(u() * counts[c])]

    # Snapshot bookkeeping.
    rec_times = np.linspace(0.0, horizon, 51)
    histograms = np.zeros((rec_times.size, n_max + 2), dtype=np.int64)
    mean_sums = np.zeros((rec_times.size, n_max + 2))
    mean_square_sums = np.zeros((rec_times.size, n_max + 2))
    # Snapshot times, then a sentinel; the first event past the horizon takes those still due.
    stops = rec_times.tolist() + [math.inf]
    rec_idx = 0
    next_rec = stops[0]

    # Agents at the precision cap pool their means again at every meeting, so
    # where they meet far more often than they are replaced their means grow
    # geometrically; past this bound the per-bin sums of squares could overflow.
    mean_limit = math.sqrt(np.finfo(float).max / P)

    def snapshot(i: int) -> None:
        arr = np.minimum(np.frombuffer(prec, dtype=np.int64), n_max + 1)
        vals = np.frombuffer(mean)
        if not np.all(np.abs(vals) <= mean_limit):
            raise SolverError(
                f"posterior means diverge by t = {rec_times[i]:.6g}: agents at the precision "
                f"cap {cap} meet far more often than they are replaced"
            )
        histograms[i] = np.bincount(arr, minlength=n_max + 2)
        mean_sums[i] = np.bincount(arr, weights=vals, minlength=n_max + 2)
        mean_square_sums[i] = np.bincount(arr, weights=vals * vals, minlength=n_max + 2)

    n_events = n_matches = n_resets = n_exits = n_rejects = n_caps = 0

    t = 0.0
    sums, match_rate, lam = rates()  # recomputed only when a class count changes
    while True:
        t_next = t + e() / lam

        while next_rec <= t_next:
            snapshot(rec_idx)
            rec_idx += 1
            next_rec = stops[rec_idx]
        if t_next > horizon:
            break
        t = t_next
        n_events += 1

        slot = u() * lam
        if slot < match_rate:
            n_matches += 1
            i = pick_searcher(sums)
            j = pick_searcher(sums)
            while j == i:
                n_rejects += 1
                j = pick_searcher(sums)
            ni, nj = prec[i], prec[j]
            nn = ni + nj
            if nn > cap:
                nn = cap
                n_caps += 1
            # A precision-0 agent holds mean 0.0, so two of them leave the state as it was.
            if ni == 0:
                xx = mean[j]
            elif nj == 0:
                xx = mean[i]
            else:
                xx = (gammas[ni] * mean[i] + gammas[nj] * mean[j]) / gammas[nn]
            prec[i] = prec[j] = nn
            mean[i] = mean[j] = xx
            c = cls_of_prec[nn]
            if agent_cls[i] != c or agent_cls[j] != c:
                for a in (i, j):
                    if agent_cls[a] != c:
                        move(a, c)
                sums, match_rate, lam = rates()
        elif slot < match_rate + reset_rate:
            n_resets += 1
            a = int(u() * P)
            n0, x0 = draw_entry()
            prec[a] = n0
            mean[a] = x0
            c = cls_of_prec[n0]
            if agent_cls[a] != c:
                move(a, c)
                sums, match_rate, lam = rates()
        else:
            n_exits += 1
            # u < 1, so int(u * P) < P for every P up to 2**53 and no index needs a clamp.
            a = int(u() * P)
            src = int(u() * P)
            prec[a] = prec[src]
            mean[a] = mean[src]
            c = agent_cls[src]
            if agent_cls[a] != c:
                move(a, c)
                sums, match_rate, lam = rates()

    return SimOutput(
        times=rec_times,
        histograms=histograms,
        mean_sums=mean_sums,
        mean_square_sums=mean_square_sums,
        final_precisions=np.array(prec, dtype=np.int64),
        final_means=np.array(mean, dtype=float),
        n_events=n_events,
        n_matches=n_matches,
        n_resets=n_resets,
        n_exits=n_exits,
        n_pair_rejects=n_rejects,
        n_precision_caps=n_caps,
        config=cfg,
    )


def estimate_value(
    policy: Policy,
    params: ModelParams,
    cfg: SimConfig,
    entry_precision: int = 1,
) -> ValueEstimate:
    """Monte Carlo estimate of the discounted value at ``entry_precision``.

    The agent follows ``policy`` inside the stationary mean-field market that
    the same policy induces (``solve_stationary``: a memo hit where the caller
    already solved it): meetings arrive at c * c_bar, partners are drawn from
    the effort-weighted measure, exit occurs at eta', and flow cost accrues
    between events in closed form.  Returns the sample mean with a 95%
    confidence half-width.  Raises SolverError, before any draw, if the
    replications may expect more than ``MAX_EVENTS`` events.
    """
    if not isinstance(entry_precision, Integral) or not 0 <= entry_precision <= params.n_max:
        raise ValidationError(f"entry precision must be an integer in [0, {params.n_max}]")
    _check_seed(cfg.seed)
    R = cfg.replications if cfg.replications is not None else cfg.population
    if not isinstance(R, Integral) or R < 1:
        raise ValidationError("replications must be an integer of at least 1")
    state = solve_stationary(policy, params)
    w = state.policy.efforts * state.mu.weights
    c_bar = float(w.sum())
    jump_cum = (np.cumsum(w) / c_bar).tolist() if c_bar > 0 else None
    # One exit per replication, after 1/eta' on average, and jumps at most at c_max c_bar.
    _check_events(R * (1.0 + float(policy.efforts.max()) * c_bar / params.eta_prime))
    cost = params.effective_cost()
    r = params.r
    eta_prime = params.eta_prime
    n_max = params.n_max
    cap = 8 * n_max
    u_of_prec = [float(exit_utility(params, p)) for p in range(cap + 1)]
    eff = policy.efforts
    k_of_prec = [cost.cost(float(eff[min(p, n_max)])) for p in range(cap + 1)]
    rate_of_prec = [float(eff[min(p, n_max)]) * c_bar for p in range(cap + 1)]

    u, e, _ = _streams(np.random.Generator(np.random.PCG64(cfg.seed)))
    total = 0.0
    total_sq = 0.0
    for _ in range(R):
        tau = e() / eta_prime
        n = entry_precision
        t, disc = 0.0, 1.0  # disc = exp(-r t), carried from the previous step's stop
        util = 0.0
        while True:
            rate = rate_of_prec[n]
            t_jump = t + e() / rate if rate > 0.0 else math.inf
            disc_stop = math.exp(-r * (tau if tau < t_jump else t_jump))
            k = k_of_prec[n]
            if k != 0.0:
                util -= k * (disc - disc_stop) / r
            if tau <= t_jump:
                util += disc_stop * u_of_prec[n]
                break
            m = bisect_right(jump_cum, u())
            if m > n_max:
                m = n_max
            n = n + m if n + m < cap else cap
            t, disc = t_jump, disc_stop
        total += util
        total_sq += util * util
    mean = total / R
    var = max(total_sq / R - mean * mean, 0.0) * R / max(R - 1, 1)
    half = 1.96 * math.sqrt(var / R)
    return ValueEstimate(mean=mean, half_width=half, replications=R)
