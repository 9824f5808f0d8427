"""Kernel primitives: conditional variance, pooling, cross-section, containers."""

from __future__ import annotations

import numpy as np
import pytest

from percolate import (
    CostSpec,
    Policy,
    PrecisionMeasure,
    ValidationError,
    cond_variance,
    cross_section_params,
    effort_weighted,
    exit_utility,
    gamma_coeff,
    load_params,
    pool_posteriors,
)
from conftest import make_scenario
from oracles import gaussian_posterior


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


def test_effort_weighting():
    p = load_params(make_scenario(pi={"1": 0.5, "2": 0.5}, n_max=8))
    pol = Policy.from_list([1.0, 0.5], p)
    mu = PrecisionMeasure.from_mapping({1: 0.6, 2: 0.4}, 8)
    nu = effort_weighted(mu, pol)
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
    assert pol.trigger == 3
    assert pol.tail_effort() == 0.1
    zero = Policy.trigger_policy(0, p)
    assert np.all(zero.efforts == 0.1)


def test_policy_from_list_and_bounds():
    p = load_params(make_scenario(c_hi=1.5))
    pol = Policy.from_list([1.0, 0.5, 0.25], p)
    assert pol.efforts[1] == 1.0 and pol.efforts[3] == 0.25 and pol.efforts[60] == 0.25
    assert pol.flat_tail_index() <= 3
    with pytest.raises(ValidationError):
        Policy.from_list([2.0], p)


def test_constant_policy():
    p = load_params(make_scenario(c_lo=0.0))
    pol = Policy.constant(0.0, p)
    assert pol.tail_effort() == 0.0 and np.all(pol.efforts == 0.0)


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


def test_n_max_override():
    p = load_params(make_scenario(), n_max_override=32)
    assert p.n_max == 32 and p.pi.n_max == 32
