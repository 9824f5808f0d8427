"""Kernel primitives: conditional variance, pooling, cross-section, containers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import percolate
from percolate import (
    CostSpec,
    MarketState,
    ModelParams,
    Policy,
    PrecisionMeasure,
    SimConfig,
    ValidationError,
    cond_variance,
    correspondence,
    cross_section_params,
    exit_utility,
    gamma_coeff,
    integrate,
    load_params,
    run,
    solve_stationary,
)
from percolate.stationary import candidate_measure
from conftest import make_scenario
from oracles import cond_variance_branching, flat_tail_index, gaussian_posterior, pool_posteriors


def test_every_exported_name_resolves():
    missing = [name for name in percolate.__all__ if not hasattr(percolate, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# Conditional variance against direct covariance inversion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rho", [0.2, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 60])
def test_cond_variance_matches_projection_oracle(rho, n):
    _, var = gaussian_posterior(rho, n)
    assert cond_variance(n, rho) == pytest.approx(var, abs=1e-12)


def test_cond_variance_frozen_value():
    # v(4) at rho = 1/2: (1 - 1/4) / (1 + 3/4) = 3/7
    assert cond_variance(4, 0.5) == pytest.approx(3.0 / 7.0, abs=1e-15)


def test_cond_variance_vectorized_and_edge():
    out = cond_variance(np.array([0, 1, 4]), 0.5)
    assert out.shape == (3,)
    assert out[0] == 1.0
    assert out[1] == pytest.approx(0.75)
    assert float(cond_variance(0, 0.9)) == 1.0


RHO_TOP = float(np.nextafter(1.0, 0.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    rho=st.one_of(st.sampled_from([0.0, 0.5, RHO_TOP]), st.floats(0.0, RHO_TOP)),
    ns=st.lists(st.integers(0, 2**40), max_size=30),
)
def test_cond_variance_matches_the_branching_form(rho, ns):
    """The branch-free form equals the earlier np.where form bit for bit.

    gamma(0) = 1 + rho^2 * (-1.0) rounds exactly as 1 - rho^2 does, so v(0)
    is (1 - rho^2) / (1 - rho^2) = 1.0 for every rho < 1, the largest included.
    """
    n = np.array([0, *ns])
    for arg in (n, n.astype(float)):
        assert cond_variance(arg, rho).tobytes() == cond_variance_branching(arg, rho).tobytes()
    for k in (0, *ns[:3]):
        for arg in (k, np.int64(k), np.array(k)):
            v = cond_variance(arg, rho)
            assert type(v) is float
            assert v.hex() == cond_variance_branching(arg, rho).hex()
    assert cond_variance(0, rho) == 1.0


def test_gamma_coeff_values():
    assert gamma_coeff(0, 0.5) == pytest.approx(0.75)
    assert gamma_coeff(1, 0.5) == 1.0
    assert gamma_coeff(5, 0.5) == pytest.approx(2.0)
    np.testing.assert_allclose(gamma_coeff(np.arange(3), 0.3), [0.91, 1.0, 1.09])


def test_cond_variance_strictly_decreasing_to_zero():
    rho = 0.6
    v = cond_variance(np.arange(0, 400), rho)
    assert np.all(np.diff(v) < 0)
    assert v[-1] < 0.01


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def test_pool_posteriors_frozen_value():
    mean, n = pool_posteriors(0.3, 2, -0.1, 3, rho=0.5)
    assert n == 5
    assert mean == pytest.approx(0.1125, abs=1e-15)


def test_pooling_matches_projection_oracle():
    # Posterior means computed on disjoint signal sets must pool to the
    # posterior mean of the combined set, for any joint signal realization.
    rho, n, m = 0.45, 3, 4
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n + m)
    b1, _ = gaussian_posterior(rho, n)
    b2, _ = gaussian_posterior(rho, m)
    ball, _ = gaussian_posterior(rho, n + m)
    pooled, tot = pool_posteriors(float(b1 @ x[:n]), n, float(b2 @ x[n:]), m, rho)
    assert tot == n + m
    assert pooled == pytest.approx(float(ball @ x), abs=1e-12)


def test_pooling_is_associative_and_commutative():
    rho = 0.7
    a, b, c = (0.4, 2), (-0.2, 3), (0.9, 1)
    ab = pool_posteriors(*a, *b, rho)
    ab_c = pool_posteriors(*ab, *c, rho)
    bc = pool_posteriors(*b, *c, rho)
    a_bc = pool_posteriors(*a, *bc, rho)
    assert ab_c[1] == a_bc[1] == 6
    assert ab_c[0] == pytest.approx(a_bc[0], abs=1e-14)
    ba = pool_posteriors(*b, *a, rho)
    assert ba[0] == pytest.approx(ab[0], abs=1e-15) and ba[1] == ab[1]


def test_pooling_rejects_empty_posteriors():
    with pytest.raises(ValidationError):
        pool_posteriors(0.0, 0, 0.1, 3, 0.5)


# ---------------------------------------------------------------------------
# Cross-sectional law of posterior means
# ---------------------------------------------------------------------------


def test_cross_section_frozen_value():
    mean, var = cross_section_params(2, y=1.0, rho=0.5)
    assert mean == pytest.approx(0.4, abs=1e-15)
    assert var == pytest.approx(0.24, abs=1e-15)


@pytest.mark.parametrize("rho,n", [(0.3, 1), (0.5, 4), (0.8, 9)])
def test_cross_section_matches_projection_oracle(rho, n):
    y = 0.63
    b, _ = gaussian_posterior(rho, n)
    # Conditional on Y=y each signal is rho*y + sqrt(1-rho^2) * std normal,
    # so the posterior mean b'X is Gaussian with these exact moments.
    mean_oracle = float(b.sum()) * rho * y
    var_oracle = float(b @ b) * (1.0 - rho * rho)
    mean, var = cross_section_params(n, y, rho)
    assert mean == pytest.approx(mean_oracle, abs=1e-12)
    assert var == pytest.approx(var_oracle, abs=1e-12)


def test_cross_section_zero_precision():
    assert cross_section_params(0, y=2.0, rho=0.5) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# Exit payoff
# ---------------------------------------------------------------------------


def test_exit_utility_default_and_signals():
    p = load_params(make_scenario())
    assert exit_utility(p, 1) == pytest.approx(-0.75)
    assert exit_utility(p, 4) == pytest.approx(-3.0 / 7.0)
    p2 = load_params(make_scenario(public_signals=2))
    assert exit_utility(p2, 2) == pytest.approx(-cond_variance(4, 0.5))


def test_exit_utility_increasing_and_concave():
    p = load_params(make_scenario(rho=0.35))
    u = exit_utility(p, np.arange(0, 200))
    d = np.diff(u)
    assert np.all(d > 0)
    assert np.all(np.diff(d) < 1e-15)


# ---------------------------------------------------------------------------
# CostSpec
# ---------------------------------------------------------------------------


def test_linear_cost_basics():
    k = CostSpec(kind="linear", kappa=0.2)
    assert k.cost(0.5) == pytest.approx(0.1)
    assert k.marginal_right(0.3) == 0.2
    np.testing.assert_allclose(k.candidate_efforts(0.0, 1.0), [0.0, 1.0])
    sub = k.with_subsidy(0.05)
    assert sub.cost(1.0) == pytest.approx(0.15)


def test_tabulated_cost_convexity_enforced():
    good = CostSpec(kind="tabulated", points=((0.0, 0.0), (0.5, 0.1), (1.0, 0.4)))
    assert good.cost(0.75) == pytest.approx(0.25)
    assert good.marginal_right(0.25) == pytest.approx(0.2)
    cands = good.candidate_efforts(0.0, 1.0)
    assert 0.5 in cands.tolist()
    with pytest.raises(ValidationError):
        CostSpec(kind="tabulated", points=((0.0, 0.0), (0.5, 0.4), (1.0, 0.5)))  # concave kink
    with pytest.raises(ValidationError):
        CostSpec(kind="tabulated", points=((0.0, 0.1), (0.0, 0.2)))  # knots not increasing


def test_cost_round_trip():
    k = CostSpec(kind="tabulated", points=((0.0, 0.0), (1.0, 0.3)))
    assert CostSpec.from_dict(k.to_dict()).points == k.points
    lin = CostSpec(kind="linear", kappa=0.07)
    assert CostSpec.from_dict(lin.to_dict()).kappa == 0.07


# ---------------------------------------------------------------------------
# PrecisionMeasure
# ---------------------------------------------------------------------------


def test_measure_tail_sums_and_support():
    w = np.zeros(6)
    w[1], w[3] = 0.5, 0.25
    m = PrecisionMeasure(w, tail_mass=0.25)
    assert m.n_max == 5
    assert m.grid_mass() == pytest.approx(0.75)
    assert m.total_mass() == pytest.approx(1.0)
    t = m.tail_sums()
    assert t[0] == pytest.approx(1.0)
    assert t[1] == pytest.approx(1.0)
    assert t[2] == pytest.approx(0.5)
    assert t[4] == pytest.approx(0.25)  # grid tail gone, compartment remains
    assert list(m.support()) == [1, 3]
    assert m.weights.flags.writeable is False


def test_measure_constructors_validate():
    with pytest.raises(ValidationError):
        PrecisionMeasure(np.array([0.5, -0.1]))
    pm = PrecisionMeasure.point_mass(4, 8)
    assert pm.weights[4] == 1.0
    fm = PrecisionMeasure.from_mapping({0: 0.25, 2: 0.75}, 4)
    assert fm.weights[0] == 0.25
    with pytest.raises(ValidationError):
        PrecisionMeasure.from_mapping({9: 1.0}, 4)


@pytest.mark.parametrize("weights,tail", [
    ([float("nan"), 1.0], 0.0),
    ([float("inf"), 1.0], 0.0),
    ([0.5, 0.5], float("nan")),
    ([0.5, 0.5], float("inf")),
], ids=["nan-weight", "inf-weight", "nan-tail", "inf-tail"])
def test_measure_rejects_non_finite_input(weights, tail):
    # NaN compares false with every bound, so only an explicit finite check catches it.
    with pytest.raises(ValidationError, match="finite"):
        PrecisionMeasure(np.array(weights), tail_mass=tail)


def test_effort_weighting():
    p = load_params(make_scenario(pi={"1": 0.5, "2": 0.5}, n_max=8))
    pol = Policy.from_list([1.0, 0.5], p)
    mu = PrecisionMeasure.from_mapping({1: 0.6, 2: 0.4}, 8)
    nu = MarketState(mu=mu, policy=pol, c_bar=0.8).nu()
    assert nu.weights[1] == pytest.approx(0.6)
    assert nu.weights[2] == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


def test_trigger_policy_shape():
    p = load_params(make_scenario(c_lo=0.1))
    pol = Policy.trigger_policy(3, p)
    e = pol.efforts
    assert e[0] == e[2] == 1.0 and e[3] == e[10] == 0.1
    assert pol.tail_effort() == 0.1
    zero = Policy.trigger_policy(0, p)
    assert np.all(zero.efforts == 0.1)


def test_policy_from_list_and_bounds():
    p = load_params(make_scenario(c_hi=1.5))
    pol = Policy.from_list([1.0, 0.5, 0.25], p)
    assert pol.efforts[1] == 1.0 and pol.efforts[3] == 0.25 and pol.efforts[60] == 0.25
    assert flat_tail_index(pol) <= 3
    with pytest.raises(ValidationError):
        Policy.from_list([2.0], p)
    # At most one entry per grid precision 1..n_max (n_max = 64).
    assert Policy.from_list([0.5] * 64, p).efforts.size == 65
    with pytest.raises(ValidationError, match="exceeds n_max"):
        Policy.from_list([0.5] * 65, p)
    with pytest.raises(ValidationError):
        Policy.from_list([0.5] * 63 + [2.0], p)


def test_constant_policy():
    p = load_params(make_scenario(c_lo=0.0))
    pol = Policy.constant(0.0, p)
    assert pol.tail_effort() == 0.0 and np.all(pol.efforts == 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_policy_rejects_non_finite_efforts(bad):
    # NaN compares false with every bound, so only an explicit finite check
    # catches it; past the constructor it made `integrate` run without end.
    # Only the constructor is called here.
    e = np.full(17, 0.5)
    e[3] = bad
    with pytest.raises(ValidationError, match="finite"):
        Policy(e)


@pytest.mark.parametrize("size", [16, 18])
@pytest.mark.parametrize("entry", ["solve_stationary", "run", "integrate"])
def test_entry_points_reject_efforts_of_the_wrong_length(entry, size):
    p = load_params(make_scenario(n_max=16))
    pol = Policy(np.full(size, 0.5))
    call = {
        "solve_stationary": lambda: solve_stationary(pol, p),
        "run": lambda: run(pol, p, SimConfig(population=100, horizon=1.0)),
        "integrate": lambda: integrate(p.pi, pol, p, t_end=1.0),
    }[entry]
    with pytest.raises(ValidationError, match="n_max"):
        call()


@pytest.mark.parametrize("call", [
    lambda p: Policy.trigger_policy(2.5, p),
    lambda p: correspondence(2.5, p),
    lambda p: candidate_measure(math.nan, Policy.trigger_policy(3, p), p),
    lambda p: candidate_measure(math.inf, Policy.trigger_policy(3, p), p),
], ids=["trigger-2.5", "correspondence-2.5", "trial-nan", "trial-inf"])
def test_entry_points_reject_malformed_numbers(call):
    # A fractional trigger used to reach numpy's slicing (TypeError), and a
    # NaN trial passed the sign check to fail as a divergent solve.
    with pytest.raises(ValidationError):
        call(load_params(make_scenario(n_max=16)))


# ---------------------------------------------------------------------------
# Scenario loading and validation
# ---------------------------------------------------------------------------


def test_load_params_list_and_mapping_entries():
    p = load_params(make_scenario(pi=[0.25, 0.75]))
    assert p.pi.weights[1] == 0.25 and p.pi.weights[2] == 0.75
    q = load_params(make_scenario(pi={"0": 0.5, "8": 0.5}))
    assert q.pi.weights[0] == 0.5 and q.pi.weights[8] == 0.5


def test_load_params_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        load_params(make_scenario(eta=-1.0))
    with pytest.raises(ValidationError):
        load_params(make_scenario(rho=1.0))
    with pytest.raises(ValidationError):
        load_params(make_scenario(c_lo=0.5, c_hi=0.2))
    with pytest.raises(ValidationError):
        load_params(make_scenario(pi=[0.5, 0.4]))  # mass 0.9
    with pytest.raises(ValidationError):
        load_params({**make_scenario(), "bogus": 1})
    # "1" and "01" name one precision: the later weight must not replace the earlier.
    with pytest.raises(ValidationError, match="precision 1 twice"):
        load_params(make_scenario(pi={"1": 1.0, "01": 1.0}))  # total weight 2
    with pytest.raises(ValidationError, match="precision 1 twice"):
        load_params(make_scenario(pi={"1": 0.5, "01": 0.5}))
    # The knots must cover [c_lo, c_hi], with the slack CostSpec.cost allows:
    # c_hi = 1 lies past the last knot here, and c_lo = 0 below the first.
    for points in ([[0, 0], [0.5, 0.05]], [[0.1, 0.01], [1, 0.1]]):
        with pytest.raises(ValidationError, match="do not cover"):
            load_params(make_scenario(cost={"type": "tabulated", "points": points}))
    load_params(make_scenario(cost={"type": "tabulated", "points": [[1e-13, 0], [1 - 1e-13, 0.1]]}))


@pytest.mark.parametrize(
    "cost, key",
    [
        ({"type": "linear", "kappa": 0.1, "kapa": 0.5}, "kapa"),
        ({"type": "linear", "kappa": 0.1, "points": 5}, "points"),
        ({"type": "tabulated", "points": [[0, 0], [1, 0.1]], "kappa": 0.3}, "kappa"),
    ],
    ids=["linear-typo", "linear-points", "tabulated-kappa"],
)
def test_load_params_rejects_unknown_cost_fields(cost, key):
    with pytest.raises(ValidationError, match=f"'{key}'"):
        load_params(make_scenario(cost=cost))


@pytest.mark.parametrize("raw,kind", [("scenario.json", "str"), (None, "NoneType"), ([], "list")])
def test_load_params_rejects_anything_but_a_mapping(raw, kind):
    # A path string was once read field by field as its characters.
    with pytest.raises(ValidationError, match=f"a scenario is a mapping of fields, got {kind}$"):
        load_params(raw)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "override",
    [
        {"eta": NAN},
        {"eta_prime": NAN},
        {"r": INF},
        {"c_hi": INF},
        {"subsidy": NAN},
        {"cost": {"type": "linear", "kappa": NAN}},
        {"cost": {"type": "tabulated", "points": [[0.0, 0.0], [0.5, NAN], [1.0, 1.0]]}},
        {"pi": [0.5, NAN, 0.5]},
    ],
    ids=["eta-nan", "eta_prime-nan", "r-inf", "c_hi-inf", "subsidy-nan", "kappa-nan",
         "cost-point-nan", "pi-nan"],
)
def test_load_params_rejects_non_finite(override):
    with pytest.raises(ValidationError, match="finite"):
        load_params(make_scenario(**override))


@pytest.mark.parametrize(
    "override",
    [
        {"eta": "abc"},
        {"eta": True},
        {"eta": None},
        {"n_max": "x"},
        {"n_max": 2.7},
        {"n_max": NAN},
        {"n_max": INF},
        {"public_signals": 1.5},
        {"public_signals": True},
        {"cost": {"type": "linear", "kappa": "0.1"}},
        {"pi": [0.5, "0.5"]},
        {"pi": {"one": 1.0}},
        {"cost": "linear"},
        {"cost": {"type": "linear"}},
        {"cost": {"type": "tabulated"}},
        {"cost": {"type": "tabulated", "points": [[0.0, 0.0], [1]]}},
    ],
    ids=["eta-string", "eta-bool", "eta-null", "n_max-string", "n_max-fraction", "n_max-nan",
         "n_max-inf", "public_signals-fraction", "public_signals-bool", "kappa-string",
         "pi-string-weight", "pi-string-precision", "cost-string", "kappa-missing",
         "points-missing", "cost-knot-not-pair"],
)
def test_load_params_rejects_non_numeric_and_non_integral(override):
    with pytest.raises(ValidationError):
        load_params(make_scenario(**override))


def test_load_params_accepts_integral_floats_for_counts():
    p = load_params(make_scenario(n_max=32.0, public_signals=2.0))
    assert p.n_max == 32 and type(p.n_max) is int
    assert p.public_signals == 2 and type(p.public_signals) is int


def test_digest_is_stable_and_discriminating():
    a = load_params(make_scenario())
    b = load_params(make_scenario())
    c = load_params(make_scenario(eta=2.0))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_an_empty_scenario_is_the_dataclass_default():
    assert load_params({}).digest() == ModelParams().digest()


def test_n_max_override():
    p = load_params(dict(make_scenario(), n_max=32))
    assert p.n_max == 32 and p.pi.n_max == 32
