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
    TabulatedTail,
    UniformValuation,
    eval_m,
    fixed_point,
    mdp_general,
    optimize_uniform,
    revenue_rate,
    solve_general,
    sweep,
    value_iteration_oracle,
)

from exact import policy_iteration
from farm_pricer.stationary import Evaluation

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
    assert type(res.theta_star) is float
    assert abs(res.theta_star - THETA_REF) < 2e-9
    np.testing.assert_allclose(res.prices, PAPER_PRICES, atol=5e-4)


@pytest.mark.parametrize("k", sorted(THETA_REF_BY_K))
def test_reference_system_other_server_counts(k):
    res = fixed_point(base_spec(k=k))
    assert abs(res.theta_star - THETA_REF_BY_K[k]) < 2e-9


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
    # deltas are the returned prices' own Delta, so every equation holds
    for i in range(1, k):
        m_i = eval_m(spec.valuation, float(res.deltas[i])).m_val
        assert abs(i * mu * res.deltas[i - 1] + lam * m_i - theta) < 1e-9
    assert abs(k * mu * res.deltas[k - 1] - theta) < 1e-9
    # the closing condition theta = lambda m(Delta(0)) as well
    m_0 = eval_m(spec.valuation, float(res.deltas[0])).m_val
    assert abs(lam * m_0 - theta) < 1e-9


# poisson-exp's unjittered cells (perfbench/workloads.py POISSON_CELLS)
BENCHMARK_CELLS = [(k, k * load * 2.0, f"{k}-load{load}")
                   for k in (2, 5, 12, 30, 70, 160, 400, 1000)
                   for load in (0.07, 0.25, 0.9, 3.2) if k * load * 2.0 <= 150.0]  # fmt: skip


@pytest.mark.parametrize("k, lam", [pytest.param(k, lam, id=i) for k, lam, i in BENCHMARK_CELLS])
def test_residuals_are_the_bellman_defects(k, lam):
    # lambda m(Delta(i)) + i mu Delta(i-1) - theta* per state, K mu Delta(K-1)
    # - theta* at the full state, in the evaluation's order of operations
    spec = base_spec(lam=lam, k=k)
    res = fixed_point(spec)
    rate, mu, theta, d = spec.arrival_rate, spec.mu, res.theta_star, res.deltas.tolist()
    m = [eval_m(spec.valuation, di).m_val for di in d]
    assert res.residuals[0] == rate * m[0] + 0.0 - theta
    for i in range(1, k):
        assert res.residuals[i] == rate * m[i] + i * mu * d[i - 1] - theta, i
    assert res.residuals[k] == rate * 0.0 + k * mu * d[k - 1] - theta
    assert np.min(res.residuals) >= -1e-12 * max(1.0, theta)


@pytest.mark.parametrize("k, lam", [pytest.param(k, lam, id=i) for k, lam, i in BENCHMARK_CELLS])
def test_residuals_within_the_certificate_on_benchmark_cells(k, lam):
    # prices that earn theta* left 1.8e-6 theta* here at (70, 126) and 1.6e-3
    # theta* at (1000, 140): revenue weighs states by their probability
    res = fixed_point(base_spec(lam=lam, k=k))
    assert np.max(np.abs(res.residuals)) <= 1e-9 * max(1.0, res.theta_star)


def test_deltas_and_prices_increase_with_occupancy():
    res = fixed_point(base_spec())
    assert np.all(np.diff(res.deltas) > 0)
    assert np.all(np.diff(res.prices) > 0)
    # exponential valuation: u*(B) = B + 1, so prices = deltas + 1
    np.testing.assert_allclose(res.prices, res.deltas + 1.0, rtol=1e-12)


def test_theta_below_infinite_server_rate():
    spec = base_spec()
    at_zero = eval_m(spec.valuation, 0.0)
    rev_inf, p_inf = spec.arrival_rate * at_zero.m_val, at_zero.u_star
    assert rev_inf == pytest.approx(25.0 / math.e, rel=1e-12)
    assert p_inf == pytest.approx(1.0, rel=1e-12)
    assert fixed_point(spec).theta_star < rev_inf


def test_theta_at_most_infinite_server_rate_on_heavy_table():
    # a 2e-9 tail out to 1e12: the bisection's last midpoint, 2500.0000006573355,
    # lies above lambda m(0) = 2500.0000000024997, what the prices earn
    val = TabulatedTail((0.0, 1.0, 1e12), (1.0, 2e-9, 0.0))
    spec = SystemSpec(servers=3, mu=2.0, arrival=Exponential(rate=5.0), valuation=val)
    bound = spec.arrival_rate * eval_m(val, 0.0).m_val
    res = fixed_point(spec)
    assert res.theta_star == revenue_rate(spec, res.prices)
    assert res.theta_star <= bound * (1.0 + 8 * np.finfo(float).eps)


def test_theta_inside_uniform_price_sandwich():
    spec = base_spec()
    res = optimize_uniform(spec.arrival, spec.valuation, spec.mu, spec.servers)
    theta = fixed_point(spec).theta_star
    assert res.revenue_K - 1e-9 <= theta <= res.gap_upper + 1e-9


def test_light_traffic_recovers_infinite_server():
    spec = base_spec(lam=0.01, k=3)
    theta = fixed_point(spec).theta_star
    rev_inf = spec.arrival_rate * eval_m(spec.valuation, 0.0).m_val
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

def test_chain_input_validation():
    det = SystemSpec(
        servers=2, mu=1.0, arrival=Deterministic(rate=3.0), valuation=ExponentialValuation(beta=1.0)
    )
    with pytest.raises(ValueError):
        fixed_point(det)


@pytest.mark.parametrize("scale", [1e-10, 1e-8, 1e-6, 1.0, 1e6, 1e10])
def test_theta_is_the_same_in_any_valuation_unit(scale):
    # valuations scaled by `scale` scale theta* by it too; the bisection width
    # is relative to lambda m(0), so no unit is too small or too large for it
    spec = SystemSpec(
        servers=5, mu=2.0, arrival=Exponential(rate=25.0),
        valuation=ExponentialValuation(beta=1.0 / scale),
    )  # fmt: skip
    assert fixed_point(spec).theta_star / scale == pytest.approx(THETA_REF, rel=1e-12)


@pytest.mark.parametrize("lam", [1e-9, 1e-6, 1e-3])
def test_light_traffic_theta_is_certified(lam):
    # theta* falls with lambda, so an absolute width of 1e-9 would exceed it
    spec = base_spec(lam=lam, k=3)
    res = fixed_point(spec)
    uniform = optimize_uniform(spec.arrival, spec.valuation, spec.mu, spec.servers).revenue_K
    assert res.theta_star >= uniform * (1.0 - 1e-11)
    assert abs(revenue_rate(spec, res.prices) - res.theta_star) <= 1e-11 * res.theta_star


@pytest.mark.parametrize("k, lam", [(300, 300.0), (400, 720.0), (1000, 154.2621070932341)])
def test_heavy_traffic_prices_are_certified(k, lam):
    # the downward chain amplifies the error of a theta bisected to 1e-9: the
    # prices at that width earn ~1e-21 theta* (K=300), ~1e-56 theta* (K=400)
    # and 2.6e-9 too little (K=1000), so policy iteration from them must
    # recover the optimum; solve_general, started from u*(0), is the check
    spec = base_spec(lam=lam, k=k)
    res = fixed_point(spec)
    assert abs(revenue_rate(spec, res.prices) - res.theta_star) <= 1e-9 + 1e-9 * res.theta_star
    assert abs(res.theta_star - solve_general(spec).theta_star) <= 1e-9


# prices that earn the bisected theta* can still miss in rare states, which
# a revenue check cannot see: (70, 126) is a timed poisson-exp cell, off by up
# to 1.9e-3 in 6 states; at (300, 300) p_0 = 0 where policy iteration gives 1,
# and 27 states differ; (70, 448) has 38 states off by up to 1.07, (160, 512)
# 53 by up to 1; (67, 2e6), a load of 15 000 with the lambda m(0) start
# bracket, 63 of 67 by up to 8.18; the Bellman-defect gate catches them all
@pytest.mark.parametrize(
    "k, lam", [(70, 126.0), (300, 300.0), (70, 448.0), (160, 512.0), (67, 2e6)]
)
def test_poisson_prices_match_policy_iteration(k, lam):
    _, prices = policy_iteration(k, lam, 2.0)
    np.testing.assert_allclose(
        fixed_point(base_spec(lam=lam, k=k)).prices, prices, rtol=0.0, atol=1e-8
    )


@pytest.mark.parametrize(
    "k, lam",
    [(5, 25.0), (12, 21.6), (30, 54.0), (70, 126.0), (300, 300.0), (70, 448.0), (160, 512.0)],
)
def test_solvers_match_exact_policy_iteration(k, lam):
    # 60-digit Decimal policy iteration; fixed_point's prices are checked in
    # test_poisson_prices_match_policy_iteration
    theta, prices = policy_iteration(k, lam, 2.0)
    spec = base_spec(lam=lam, k=k)
    res = solve_general(spec)
    assert res.theta_star == pytest.approx(theta, rel=1e-12)
    np.testing.assert_allclose(res.prices, prices, rtol=0.0, atol=1e-8)
    assert fixed_point(spec).theta_star == pytest.approx(theta, rel=1e-12)


@pytest.mark.parametrize("k", [67, 68])
def test_overflowing_start_bracket_falls_back_to_the_infinite_server_rate(k, monkeypatch):
    # g_0(0) is finite, but lambda m(g_0(0)) overflows, so the bisection
    # starts from [0, lambda m(0)]: 32 g-chains, where K=66's bracket takes 1026
    real, calls = mdp_general._chain, []
    monkeypatch.setattr(mdp_general, "_chain", lambda *a: calls.append(a) or real(*a))
    spec = base_spec(lam=2e6, k=k)
    theta, _ = policy_iteration(k, 2e6, 2.0)
    res = fixed_point(spec)
    assert res.theta_star == pytest.approx(theta, rel=1e-9)
    assert len(calls) < 100


def test_uncertified_prices_are_no_convergence(monkeypatch):
    # prices that seem to earn nothing leave Bellman defects of order theta*
    real = mdp_general.evaluate
    monkeypatch.setattr(
        mdp_general, "evaluate", lambda spec, prices: Evaluation(0.0, real(spec, prices).pi)
    )
    with pytest.raises(NoConvergence, match="Bellman defect"):
        fixed_point(base_spec())


OVERFLOW_CELLS = [(1000, 5000.0), (400, 2560.0), (1000, 1800.0)]


@pytest.mark.parametrize(
    "val, k, lam",
    [(ExponentialValuation(beta=1.0), k, lam) for k, lam in OVERFLOW_CELLS]
    + [(UniformValuation(lo=0.0, hi=2.0), k, lam) for k, lam in OVERFLOW_CELLS],
    ids=[f"{k}-{lam}" for k, lam in OVERFLOW_CELLS]
    + [f"uniform-{k}-{lam}" for k, lam in OVERFLOW_CELLS],
)
def test_overflowing_chain_is_no_convergence(val, k, lam):
    # the chain overflows the floats; no RuntimeWarning may escape either
    with pytest.raises(NoConvergence, match="overflows"):
        fixed_point(SystemSpec(servers=k, mu=2.0, arrival=Exponential(rate=lam), valuation=val))


def test_numpy_scalar_parameters_overflow_cleanly():
    # the laws keep their parameters as Python floats, so the overflow
    # reaches the chain's isfinite check without a numpy RuntimeWarning
    spec = SystemSpec(
        servers=1000, mu=np.float64(2.0), arrival=Exponential(rate=np.float64(5000.0)),
        valuation=ExponentialValuation(beta=np.float64(1.0)),
    )  # fmt: skip
    assert {type(spec.mu), type(spec.arrival.rate), type(spec.valuation.beta)} == {float}
    with pytest.raises(NoConvergence, match="overflows"):
        fixed_point(spec)


# ---------------------------------------------------------------- oracle

def test_value_iteration_agrees_single_server():
    spec = base_spec(lam=3.0, mu=2.0, k=1)
    theta = fixed_point(spec).theta_star
    assert value_iteration_oracle(spec) == pytest.approx(theta, rel=1e-6)


def test_value_iteration_agrees_reference():
    theta = value_iteration_oracle(base_spec())
    assert theta == pytest.approx(THETA_REF, rel=1e-6)


def test_value_iteration_out_of_sweeps_is_no_convergence(monkeypatch):
    monkeypatch.setattr(mdp_general, "_RVI_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence, match="span above"):
        value_iteration_oracle(base_spec())


# ---------------------------------------------------------------- sweeps

def test_lambda_sweep_monotonicity():
    grid = [10.0, 15.0, 20.0, 25.0, 30.0]
    rows = sweep(base_spec(), "lambda", grid)
    thetas = [r.theta_star for r in rows]
    ratios = [r.theta_star / lam for lam, r in zip(grid, rows)]
    p_lo = [r.prices[0] for r in rows]
    p_hi = [r.prices[-1] for r in rows]
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
        k = len(a.prices)
        assert np.all(b.prices[:k] <= a.prices + 1e-7)


def test_sweep_validation(monkeypatch):
    # the whole grid is checked before anything is solved
    monkeypatch.setattr(mdp_general, "solve_general", lambda spec: pytest.fail("solved"))
    with pytest.raises(ValueError):
        sweep(base_spec(), "lambda", [])
    with pytest.raises(ValueError):
        sweep(base_spec(), "lambda", [10.0, 10.0])
    with pytest.raises(ValueError):
        sweep(base_spec(), "beta", [1.0, 2.0])
    with pytest.raises(ValueError):
        sweep(base_spec(), "K", [3.5, 4.0])
    bad = (("K", [3, math.inf]), ("lambda", [30.0, math.nan, 20.0]), ("mu", [math.nan]))
    for vary, grid in bad:
        with pytest.raises(ValueError, match="nonempty, finite and strictly increasing"):
            sweep(base_spec(), vary, grid)
