"""Fixed-point solver for Poisson arrivals, cross-checked by value iteration."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from farm_pricer import (
    Deterministic,
    Exponential,
    ExponentialValuation,
    NoConvergence,
    SystemSpec,
    UniformValuation,
    eval_m,
    fixed_point,
    g_chain,
    gap_bound,
    infinite_server_limit,
    mdp_poisson,
    revenue_rate,
    solve_general,
    sweep,
    value_iteration_oracle,
)

# frozen oracle for theta*(K=5, lambda=25, mu=2, Gbar=e^-p): the root of
# theta = lambda m(g_0(theta)) in 40-digit mpmath arithmetic
THETA_REF = 7.726190669152576
# theta* at K=4 and K=7 (same lambda, mu, Gbar): the maximum of the product-form
# birth-death revenue sum_i pi_i lambda e^{-p_i} p_i, found as a root of its
# gradient in 40-digit mpmath arithmetic, independently of the solver
THETA_REF_BY_K = {4: 6.950008166894, 7: 8.652535027485}
PAPER_PRICES = (1.1743, 1.2204, 1.2954, 1.4349, 1.7726)


def base_spec(lam=25.0, mu=2.0, k=5):
    return SystemSpec(
        servers=k, mu=mu, arrival=Exponential(rate=lam), valuation=ExponentialValuation(beta=1.0)
    )


# ---------------------------------------------------------------- fixed point

def test_reference_system():
    res = fixed_point(base_spec())
    assert abs(res.theta_star - THETA_REF) < 2e-9
    assert res.bracket_width <= 1e-9
    np.testing.assert_allclose(res.prices, PAPER_PRICES, atol=5e-4)


@pytest.mark.parametrize("k", sorted(THETA_REF_BY_K))
def test_reference_system_other_server_counts(k):
    res = fixed_point(base_spec(k=k))
    assert abs(res.theta_star - THETA_REF_BY_K[k]) < 2e-9
    assert res.bracket_width <= 1e-9


def test_single_server_matches_scalar_root():
    lam, mu = 3.0, 2.0
    spec = base_spec(lam=lam, mu=mu, k=1)
    # theta = lam m(theta/mu) with m(B) = e^{-(B+1)}
    oracle = brentq(lambda t: t - lam * math.exp(-t / mu - 1.0), 0.0, lam / math.e, xtol=1e-14)
    res = fixed_point(spec)
    assert res.theta_star == pytest.approx(oracle, abs=2e-9)
    assert res.deltas[0] == pytest.approx(res.theta_star / mu, rel=1e-12)


def test_bellman_equations_hold():
    spec = base_spec()
    res = fixed_point(spec)
    lam, mu, theta = spec.arrival_rate, spec.mu, res.theta_star
    k = spec.servers
    # interior equations are exact by construction of the chain
    for i in range(1, k):
        m_i = eval_m(spec.valuation, float(res.deltas[i])).m_val
        assert abs(i * mu * res.deltas[i - 1] + lam * m_i - theta) < 1e-9
    assert abs(k * mu * res.deltas[k - 1] - theta) < 1e-9
    # the closing condition carries the bisection error, amplified by dg0/dtheta
    m_0 = eval_m(spec.valuation, float(res.deltas[0])).m_val
    assert abs(lam * m_0 - theta) < 1e-5


def test_deltas_and_prices_increase_with_occupancy():
    res = fixed_point(base_spec())
    assert np.all(np.diff(res.deltas) > 0)
    assert np.all(np.diff(res.prices) > 0)
    # exponential valuation: u*(B) = B + 1, so prices = deltas + 1
    np.testing.assert_allclose(res.prices, res.deltas + 1.0, rtol=1e-12)


def test_theta_below_infinite_server_rate():
    spec = base_spec()
    rev_inf, p_inf = infinite_server_limit(spec)
    assert rev_inf == pytest.approx(25.0 / math.e, rel=1e-12)
    assert p_inf == pytest.approx(1.0, rel=1e-12)
    assert fixed_point(spec).theta_star < rev_inf


def test_theta_inside_uniform_price_sandwich():
    spec = base_spec()
    lower, upper, _ = gap_bound(spec.arrival, spec.valuation, spec.mu, spec.servers)
    theta = fixed_point(spec).theta_star
    assert lower - 1e-9 <= theta <= upper + 1e-9


def test_light_traffic_recovers_infinite_server():
    spec = base_spec(lam=0.01, k=3)
    theta = fixed_point(spec).theta_star
    rev_inf, _ = infinite_server_limit(spec)
    assert theta <= rev_inf
    assert theta / rev_inf > 0.99


def test_numeric_valuation_path():
    spec = SystemSpec(
        servers=3,
        mu=2.0,
        arrival=Exponential(rate=10.0),
        valuation=UniformValuation(lo=0.0, hi=2.0),
    )
    res = fixed_point(spec)
    # Gbar(u) = 1 - u/2 gives m(B) = (1 - B/2)^2 / 2: exact closing condition
    lam = 10.0
    assert res.theta_star == pytest.approx(
        lam * (1.0 - res.deltas[0] / 2.0) ** 2 / 2.0, abs=1e-4
    )
    assert np.all(np.diff(res.prices) > 0)


# ---------------------------------------------------------------- g chain

def test_chain_at_zero_theta_is_nonpositive():
    g = g_chain(base_spec(), 0.0)
    assert g[-1] == 0.0
    assert np.all(g[:-1] < 0)


def test_chain_input_validation():
    with pytest.raises(ValueError):
        g_chain(base_spec(), -0.5)
    det = SystemSpec(
        servers=2, mu=1.0, arrival=Deterministic(rate=3.0), valuation=ExponentialValuation(beta=1.0)
    )
    with pytest.raises(ValueError):
        g_chain(det, 1.0)
    with pytest.raises(ValueError):
        fixed_point(det)
    with pytest.raises(ValueError):
        fixed_point(base_spec(), delta_precision=0.0)


def test_unreachable_precision_is_no_convergence():
    # the bracket stops shrinking at adjacent floats, so the step cap ends it
    with pytest.raises(NoConvergence, match="after 2001 steps"):
        fixed_point(base_spec(), delta_precision=1e-300)


@pytest.mark.parametrize("k, lam", [(300, 300.0), (400, 720.0), (1000, 154.2621070932341)])
def test_heavy_traffic_prices_are_certified(k, lam):
    # the downward chain amplifies the error of a theta bisected to 1e-9: the
    # prices at that width earned ~1e-21 theta* (K=300), ~1e-56 theta* (K=400)
    # and 2.6e-9 too little (K=1000), so the bisection goes on until they earn
    # theta*; policy iteration on the embedded chain is the independent check
    spec = base_spec(lam=lam, k=k)
    res = fixed_point(spec)
    assert abs(revenue_rate(spec, res.prices) - res.theta_star) <= 1e-9 + 1e-9 * res.theta_star
    assert abs(res.theta_star - solve_general(spec).theta_star) <= 1e-9


def test_uncertified_prices_are_no_convergence(monkeypatch):
    # prices that never earn theta* end the bisection at adjacent floats
    monkeypatch.setattr(mdp_poisson, "revenue_rate", lambda spec, prices: 0.0)
    with pytest.raises(NoConvergence, match="prices earn"):
        fixed_point(base_spec())


@pytest.mark.parametrize("k, lam", [(1000, 5000.0), (400, 2560.0), (1000, 1800.0)])
def test_overflowing_chain_is_no_convergence(k, lam):
    # the chain overflows the floats; no RuntimeWarning may escape either
    with pytest.raises(NoConvergence, match="overflows"):
        fixed_point(base_spec(lam=lam, k=k))


# ---------------------------------------------------------------- oracle

def test_value_iteration_agrees_single_server():
    spec = base_spec(lam=3.0, mu=2.0, k=1)
    theta = fixed_point(spec).theta_star
    assert value_iteration_oracle(spec) == pytest.approx(theta, rel=1e-6)


def test_value_iteration_agrees_reference():
    theta = value_iteration_oracle(base_spec())
    assert theta == pytest.approx(THETA_REF, rel=1e-6)


# ---------------------------------------------------------------- sweeps

def test_lambda_sweep_monotonicity():
    rows = sweep(base_spec(), "lambda", [10.0, 15.0, 20.0, 25.0, 30.0])
    thetas = [r.theta_star for r in rows]
    ratios = [r.ratio for r in rows]
    p_lo = [r.result.prices[0] for r in rows]
    p_hi = [r.result.prices[-1] for r in rows]
    assert np.all(np.diff(thetas) > 0)
    assert np.all(np.diff(ratios) < 0)
    assert np.all(np.diff(p_lo) > 0)
    assert np.all(np.diff(p_hi) > 0)


def test_mu_sweep_monotonicity():
    rows = sweep(base_spec(), "mu", [1.0, 2.0, 3.0, 4.0])
    assert np.all(np.diff([r.theta_star for r in rows]) > 0)


def test_server_sweep_monotonicity():
    rows = sweep(base_spec(), "K", [3, 4, 5, 6, 7])
    assert np.all(np.diff([r.theta_star for r in rows]) > 0)
    # adding a server relaxes scarcity: every shared state gets cheaper
    for a, b in zip(rows, rows[1:]):
        k = len(a.result.prices)
        assert np.all(b.result.prices[:k] <= a.result.prices + 1e-7)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(base_spec(), "lambda", [])
    with pytest.raises(ValueError):
        sweep(base_spec(), "lambda", [10.0, 10.0])
    with pytest.raises(ValueError):
        sweep(base_spec(), "beta", [1.0, 2.0])
    with pytest.raises(ValueError):
        sweep(base_spec(), "K", [3.5, 4.0])
