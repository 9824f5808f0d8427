"""Finite-population cross-checks of the mean-field solver."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from percolate import (
    Policy,
    SolverError,
    ValidationError,
    cross_section_params,
    exit_utility,
    load_params,
    solve_stationary,
)
from percolate.simulator import SimConfig, estimate_value, run
from conftest import SIM_ARRAYS, SIM_COUNTERS, make_scenario


def _params(**over):
    return load_params(make_scenario(**over))


@pytest.fixture(scope="module")
def trigger3_run():
    p = _params()
    policy = Policy.trigger_policy(3, p)
    state = solve_stationary(policy, p)
    cfg = SimConfig(population=20_000, horizon=40.0, seed=11)
    out = run(policy, p, cfg)
    return p, policy, state, out


# ---------------------------------------------------------------------------
# Reproducibility and accounting
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_and_seeds_matter():
    p = _params()
    policy = Policy.trigger_policy(2, p)
    cfg = SimConfig(population=2_000, horizon=10.0, seed=7)
    a = run(policy, p, cfg)
    b = run(policy, p, cfg)
    np.testing.assert_array_equal(a.histograms, b.histograms)
    assert (a.n_events, a.n_matches, a.n_exits, a.n_resets) == (
        b.n_events,
        b.n_matches,
        b.n_exits,
        b.n_resets,
    )
    np.testing.assert_array_equal(a.final_means, b.final_means)
    c = run(policy, p, SimConfig(population=2_000, horizon=10.0, seed=8))
    assert not np.array_equal(a.histograms[-1], c.histograms[-1])


def test_population_is_conserved_in_every_snapshot(trigger3_run):
    _, _, _, out = trigger3_run
    assert np.all(out.histograms.sum(axis=1) == 20_000)
    assert out.histograms[:, -1].sum() == 0  # trigger policy keeps the grid


def test_event_counters_are_consistent(trigger3_run):
    _, _, _, out = trigger3_run
    assert out.n_events == out.n_matches + out.n_resets + out.n_exits
    assert out.n_matches > 0 and out.n_exits > 0 and out.n_resets > 0


# ---------------------------------------------------------------------------
# Idle policy: pure entry-exit churn
# ---------------------------------------------------------------------------


def test_idle_policy_never_matches_and_tracks_entry_measure():
    p = _params(pi={"1": 0.5, "4": 0.5})
    policy = Policy.constant(0.0, p)
    cfg = SimConfig(population=20_000, horizon=12.0, seed=3)
    out = run(policy, p, cfg)
    assert out.n_matches == 0
    freq = out.frequencies()
    for n in (1, 4):
        se = np.sqrt(0.5 * 0.5 / 20_000)
        assert abs(freq[n] - 0.5) < 4 * se
    est = estimate_value(policy, p, SimConfig(seed=5, replications=50_000), entry_precision=1)
    exact = p.eta_prime * exit_utility(p, 1) / (p.r + p.eta_prime)
    assert abs(est.mean - exact) < 1.6 * est.half_width  # 3 sigma


# ---------------------------------------------------------------------------
# Stationary histogram and conditional moments
# ---------------------------------------------------------------------------


def test_histogram_matches_stationary_weights(trigger3_run):
    p, _, state, out = trigger3_run
    freq = out.frequencies()
    mu = state.mu.weights
    heavy = mu >= 1e-3
    bound = 4.0 * np.sqrt(mu[heavy] / 20_000)
    assert np.all(np.abs(freq[heavy] - mu[heavy]) < bound)


def test_conditional_moments_match_projection(trigger3_run):
    p, _, state, out = trigger3_run
    y = out.config.y_realization
    mu = state.mu.weights
    for n in np.flatnonzero(mu * 20_000 >= 800):
        sel = out.final_precisions == n
        m = int(sel.sum())
        assert m > 200
        sample = out.final_means[sel]
        mean_th, var_th = cross_section_params(int(n), y, p.rho)
        assert abs(sample.mean() - mean_th) < 3.3 * np.sqrt(var_th / m)
        s2 = sample.var(ddof=1)
        assert abs(s2 - var_th) < 3.3 * var_th * np.sqrt(2.0 / (m - 1))


def test_snapshot_moment_sums_match_final_state(trigger3_run):
    p, _, _, out = trigger3_run
    counts, means, variances = out.conditional_moments(at=-1)
    assert np.all(counts == out.histograms[-1])
    for n in range(p.n_max + 1):
        sel = out.final_means[out.final_precisions == n]
        if sel.size == 0:
            assert np.isnan(means[n])
        else:
            assert means[n] == pytest.approx(sel.mean(), abs=1e-12)
        if sel.size > 1:
            assert variances[n] == pytest.approx(sel.var(ddof=1), rel=1e-9, abs=1e-13)


# ---------------------------------------------------------------------------
# Grid overflow accounting
# ---------------------------------------------------------------------------


def test_precision_cap_is_counted_and_binned():
    p = _params(eta=0.2, n_max=8)
    policy = Policy.constant(1.0, p)
    out = run(policy, p, SimConfig(population=2_000, horizon=25.0, seed=13))
    assert out.n_precision_caps > 0
    assert out.histograms[-1, -1] > 0
    assert np.all(out.histograms.sum(axis=1) == 2_000)


def test_diverging_means_at_the_cap_raise_instead_of_overflowing():
    # Two agents and no replacement: they meet 1e5 times, both at the cap
    # after three meetings, and each later meeting doubles their common mean.
    # Squaring it for the snapshot overflowed (a RuntimeWarning, exit 0).
    p = _params(eta=1e-300, eta_prime=1e-300, rho=1e-12, c_hi=1e6, n_max=2)
    with pytest.raises(SolverError, match="posterior means diverge"):
        run(Policy.constant(1e6, p), p, SimConfig(population=2, horizon=1e-7))


@pytest.mark.parametrize("horizon", [13.7, 0.9])
def test_snapshot_times_end_exactly_at_the_horizon(horizon):
    # The grid was once built by stepping horizon / 50: at 13.7 it ended with
    # two snapshots 2e-15 apart, and at 0.9 its last time lay past the horizon.
    p = _params(n_max=16)
    out = run(Policy.trigger_policy(2, p), p, SimConfig(population=200, horizon=horizon, seed=5))
    assert out.times.size == out.histograms.shape[0] == 51
    assert np.all(np.diff(out.times) > 0.0)
    assert out.times[0] == 0.0 and out.times[-1] == horizon


# ---------------------------------------------------------------------------
# Value estimate against an exact policy-value computation
# ---------------------------------------------------------------------------


def test_estimate_value_matches_linear_system(trigger3_run):
    p, policy, state, _ = trigger3_run
    w = (state.policy.efforts * state.mu.weights).astype(float)
    c_bar = float(w.sum())
    denom_stop = p.r + p.eta_prime

    # Precisions >= 3 never search under trigger 3: closed-form continuations.
    def stopped(n: int) -> float:
        return p.eta_prime * float(exit_utility(p, n)) / denom_stop

    # Searching bins 1..2 form a linear system over jump targets.
    kappa = p.cost.kappa
    idx = [1, 2]
    a = np.zeros((2, 2))
    b = np.zeros(2)
    for i, n in enumerate(idx):
        a[i, i] = c_bar + denom_stop
        b[i] = p.eta_prime * float(exit_utility(p, n)) - kappa
        for m in range(1, p.n_max + 1):
            tgt = n + m
            if tgt in idx:
                a[i, idx.index(tgt)] -= w[m]
            else:
                b[i] += w[m] * stopped(tgt)
    v = np.linalg.solve(a, b)

    est = estimate_value(policy, p, SimConfig(seed=29, replications=120_000), entry_precision=1)
    assert abs(est.mean - v[0]) < 1.6 * est.half_width  # 3 sigma
    assert est.replications == 120_000


@pytest.mark.parametrize("entry, replications", [(-1, 10), (17, 10), (1, 0)])
def test_estimate_value_rejects_bad_entry_and_replications(entry, replications):
    p = _params(n_max=16)
    with pytest.raises(ValidationError):
        estimate_value(Policy.trigger_policy(1, p), p, SimConfig(replications=replications),
                       entry_precision=entry)


# ---------------------------------------------------------------------------
# The random stream, pinned
# ---------------------------------------------------------------------------
# Recorded from the event loops that drew through per-draw buffer indexing
# (``tests/oracles.py``).  Any change to the block size, the order of the
# draws or the event logic moves these digests.

PINNED_RUNS = {
    # 780k u, 232k e and 121k n draws: every stream crosses a block refill.
    "refill": (
        {}, 3, SimConfig(population=20_000, horizon=5.0, seed=1),
        (232221, 31822, 100542, 99857, 3, 0),
        ("f4c07a190fe92f2a38880d998493900932787b09956039a117a1072c116ddb13",
         "3c45fa6d60b9b106ebf0e9b946305494303328937ec18ff002f395c48bab7510",
         "0de6e8e54ea4229fac0eeaa4b0a1b260be77afefd6e60868d763a3616fa9c911",
         "5630afcd4e10e2d98f7b553887349b7248ef10d2ecb3cb593fbcd6d79655861d",
         "90b61266beac9f62abe925658629b02bac62e79bafc7b9a0af9f1e7d26728c6a",
         "b2cea9c8c83d953176ae63800ff283a1f6bff68120c17b40da99901be5a2ca33"),
    ),
    # Constant full effort on a 4-bin grid: thousands of pooled precisions hit the cap.
    "caps": (
        {"eta": 0.2, "n_max": 4}, None, SimConfig(population=2_000, horizon=10.0, seed=2),
        (33801, 9977, 4030, 19794, 5, 6844),
        ("756a3f4e803e0e63af4b63c66e0fd678c6cdda17bb3e71347b49f72cdbb3b283",
         "46be87a32e6e59a1b8339654340c4c23cc5fdbbcee54f370a245f429441ced22",
         "76fd86c2a759dd5c44965fd013dd9e92dd11e047c457c619180e76268e22b902",
         "3a22ec4ce1bc2a6f963c54b41a54f0e3dbeefa65561fcabf42ee16c721b66e2b",
         "2ae32328a96a39096865705a7e8fc2d6019accbcc6f333f2745c221eae0e571c",
         "888a8dfd8a50b18c44905978d94229dbafd43b7d9a5560cd75e2c21f7651dce3"),
    ),
    # Two positive effort classes; entrants at precision 0 draw no normal variate.
    "c_lo": (
        {"c_lo": 0.2, "pi": {"0": 0.5, "2": 0.5}, "n_max": 16}, 3,
        SimConfig(population=3_000, horizon=8.0, seed=3),
        (56058, 8534, 23756, 23768, 2, 0),
        ("0686219737fa043581c432909b07c4d28e69748f7230ec8904e7ad17b8ceb402",
         "5b448c54df5e8ac3d39b7cd445fcbc50f363db5458ee76a0b59485898d883345",
         "f36080733afb8eadcd7079a493d0aa32441e650ac17a83b042d8b93f6a4559ac",
         "204bd6381cdc3a07627ee8eb5cfd8e798b3e9c14c78b0fa0c07b103a36747ebe",
         "345d00eef90646a2aba3c336cc7e784853cd43e1c6e6d7dfc556a70ccaa34743",
         "3698dabcec7b7e21580c6d7b7051d6eb321401b4579b53ee9e0a4eb78945db33"),
    ),
}


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_run_reproduces_the_pinned_stream(name):
    over, trigger, cfg, counters, digests = PINNED_RUNS[name]
    p = _params(**over)
    policy = Policy.constant(1.0, p) if trigger is None else Policy.trigger_policy(trigger, p)
    out = run(policy, p, cfg)
    assert tuple(getattr(out, k) for k in SIM_COUNTERS) == counters
    got = tuple(hashlib.sha256(np.ascontiguousarray(getattr(out, k)).tobytes()).hexdigest()
                for k in SIM_ARRAYS)
    assert dict(zip(SIM_ARRAYS, got)) == dict(zip(SIM_ARRAYS, digests))


# (mean, half_width) by float.hex; 40k replications take 80k-101k e draws.
PINNED_VALUES = {
    0: ("-0x1.b68adc51c33f0p-1", "0x1.d57c5217f7e68p-10"),
    1: ("-0x1.593a8ab6082e0p-1", "0x1.2e647605a740ep-10"),
    2: ("-0x1.1c812448ecd06p-1", "0x1.b4bbf8391a1c3p-11"),
}


@pytest.mark.parametrize("entry", list(PINNED_VALUES))
def test_estimate_value_reproduces_the_pinned_stream(entry):
    p = _params()
    est = estimate_value(Policy.trigger_policy(3, p), p, SimConfig(seed=17, replications=40_000),
                         entry_precision=entry)
    assert (est.mean.hex(), est.half_width.hex()) == PINNED_VALUES[entry]
    assert est.replications == 40_000


def test_a_uniform_below_one_never_indexes_past_the_end():
    """``run`` picks agents and pool slots as int(u * P) with no clamp at P.

    Every uniform u < 1 is at most nextafter(1, 0) = 1 - 2**-53, and rounding
    is monotone, so int(u * P) <= int(nextafter(1, 0) * P).  For an integer
    1 <= P <= 2**53 that product rounds below P: P * 2**-53 is more than half
    a unit in the last place below P, or exactly one such unit when P is a
    power of two.  So the index is always below P.
    """
    top = float(np.nextafter(1.0, 0.0))
    assert all(int(top * p) < p for p in range(1, 10**6 + 1))
    rng = np.random.default_rng(0)
    for p in rng.integers(1, 2**53, size=100_000, endpoint=True).tolist() + [2**53 - 1, 2**53]:
        assert int(top * p) < p, p


# ---------------------------------------------------------------------------
# Invalid configurations through the Python API
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda pol, p: run(pol, p, SimConfig(population=100, horizon=math.nan)),
    lambda pol, p: run(pol, p, SimConfig(population=100, horizon=math.inf)),
    lambda pol, p: run(pol, p, SimConfig(population=100, horizon=1.0, y_realization=math.nan)),
    lambda pol, p: run(pol, p, SimConfig(population=2.5, horizon=1.0)),
    lambda pol, p: estimate_value(pol, p, SimConfig(replications=2.5)),
    lambda pol, p: estimate_value(pol, p, SimConfig(replications=10), entry_precision=1.5),
    lambda pol, p: run(pol, p, SimConfig(population=100, horizon=1.0, seed=-1)),
    lambda pol, p: run(pol, p, SimConfig(population=100, horizon=1.0, seed=2.5)),
    lambda pol, p: estimate_value(pol, p, SimConfig(replications=10, seed=-1)),
    lambda pol, p: estimate_value(pol, p, SimConfig(replications=10, seed=2.5)),
], ids=["horizon-nan", "horizon-inf", "y-nan", "population-2.5", "replications-2.5",
        "entry-1.5", "run-seed-negative", "run-seed-2.5",
        "value-seed-negative", "value-seed-2.5"])
def test_simulator_rejects_invalid_configuration(call):
    p = _params(n_max=16)
    with pytest.raises(ValidationError):
        call(Policy.trigger_policy(1, p), p)
