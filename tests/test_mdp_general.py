"""Arrival-sampled solver: Poisson equivalence, frozen regressions, invariants."""

import math

import numpy as np
import pytest

from farm_pricer import (
    Deterministic,
    Exponential,
    ExponentialValuation,
    SystemSpec,
    TabulatedTail,
    UniformInterval,
    UniformValuation,
    departure_matrix,
    eval_m,
    fixed_point,
    g_chain_general,
    optimize_uniform,
    revenue_rate,
    revenue_uniform,
    solve_general,
)

VAL = ExponentialValuation(beta=1.0)


def spec_with(arrival, k=5, mu=2.0, val=VAL):
    return SystemSpec(servers=k, mu=mu, arrival=arrival, valuation=val)


# ------------------------------------------------------- Poisson equivalence

def test_matches_fixed_point_for_poisson():
    spec = spec_with(Exponential(rate=25.0))
    ref = fixed_point(spec)
    res = solve_general(spec)
    assert res.theta_star == pytest.approx(ref.theta_star, rel=1e-6)
    np.testing.assert_allclose(res.prices, ref.prices, atol=1e-5)
    # the sampled chain's g_j differ from the uniformized Delta(i); the
    # effective price arguments b_i are what must agree
    np.testing.assert_allclose(res.b_vals, ref.deltas, atol=1e-5)


def test_matches_fixed_point_single_server():
    spec = spec_with(Exponential(rate=3.0), k=1, mu=2.0)
    ref = fixed_point(spec)
    res = solve_general(spec)
    assert res.theta_star == pytest.approx(ref.theta_star, rel=1e-6)
    # root condition is theta = lambda P(server freed within one gap) g_0,
    # and that probability is mu/(lambda+mu) for Poisson arrivals
    assert res.deltas[0] == pytest.approx(res.theta_star / (3.0 * 2.0 / 5.0), rel=1e-6)


def test_matches_fixed_point_numeric_valuation():
    # piecewise-linear tail: exercises the per-piece exact m inverse
    spec = spec_with(Exponential(rate=10.0), k=3, val=UniformValuation(lo=0.0, hi=2.0))
    ref = fixed_point(spec)
    res = solve_general(spec)
    assert res.theta_star == pytest.approx(ref.theta_star, rel=1e-6)
    np.testing.assert_allclose(res.prices, ref.prices, atol=1e-4)


def test_atom_valuation_matches_fixed_point_and_certificate():
    # the final atom at 2 carries the top prices; both solvers must land on
    # the same certified optimum there
    val = TabulatedTail(xs=(0.0, 1.0, 2.0), gs=(1.0, 0.5, 0.3))
    spec = spec_with(Exponential(rate=25.0), val=val)
    ref = fixed_point(spec)
    assert revenue_rate(spec, ref.prices) == pytest.approx(ref.theta_star, rel=1e-9)
    assert np.all(np.diff(ref.prices) >= 0)
    assert ref.theta_star >= revenue_uniform(spec.arrival, val, spec.mu, spec.servers, 2.0)
    assert ref.theta_star <= optimize_uniform(spec.arrival, val, spec.mu, spec.servers).gap_upper

    res = solve_general(spec)
    assert res.theta_star == pytest.approx(ref.theta_star, rel=1e-9)
    assert revenue_rate(spec, res.prices) == pytest.approx(res.theta_star, rel=1e-9)


# ------------------------------------------------------------- regressions

def test_deterministic_interarrival_reference():
    res = solve_general(spec_with(Deterministic(rate=25.0)))
    assert res.theta_star == pytest.approx(7.904174888462629, rel=1e-7)
    np.testing.assert_allclose(
        res.prices, (1.1515, 1.1922, 1.2592, 1.3864, 1.7037), atol=5e-4
    )


def test_uniform_interarrival_reference():
    res = solve_general(spec_with(UniformInterval.from_rate(25.0)))
    assert res.theta_star == pytest.approx(7.838713046552391, rel=1e-7)
    np.testing.assert_allclose(
        res.prices, (1.1598, 1.2026, 1.2726, 1.4045, 1.7300), atol=5e-4
    )


def test_lower_variability_earns_more_and_prices_lower():
    # deterministic < uniform < exponential interarrival variability
    r_exp = solve_general(spec_with(Exponential(rate=25.0)))
    r_uni = solve_general(spec_with(UniformInterval.from_rate(25.0)))
    r_det = solve_general(spec_with(Deterministic(rate=25.0)))
    assert r_det.theta_star > r_uni.theta_star > r_exp.theta_star
    assert np.all(r_det.prices < r_uni.prices)
    assert np.all(r_uni.prices < r_exp.prices)


# --------------------------------------------------------------- invariants

@pytest.mark.parametrize(
    "arrival",
    [Exponential(rate=25.0), Deterministic(rate=25.0), UniformInterval.from_rate(25.0)],
    ids=["exp", "det", "unif"],
)
def test_solution_structure(arrival):
    spec = spec_with(arrival)
    res = solve_general(spec)
    assert np.all(np.diff(res.deltas) > 0)
    assert np.all(np.diff(res.b_vals) > 0)
    assert np.all(np.diff(res.prices) > 0)
    assert np.max(np.abs(res.residuals)) <= 1e-9 * max(1.0, res.theta_star)
    assert 0 < res.theta_star < spec.arrival_rate * eval_m(spec.valuation, 0.0).m_val


def test_more_servers_earn_more():
    thetas = [
        solve_general(spec_with(Deterministic(rate=25.0), k=k)).theta_star for k in (3, 4, 5, 6)
    ]
    assert np.all(np.diff(thetas) > 0)


# ------------------------------------------------------------------- chain

def test_chain_feasibility_flag():
    spec = spec_with(Deterministic(rate=25.0))
    dep = departure_matrix(spec.arrival, spec.mu, spec.servers)
    _, ok = g_chain_general(spec, dep, 7.9)
    assert ok
    # theta / lambda below the representable range of m^{-1} forces a clamp
    _, ok = g_chain_general(spec, dep, 1e-18)
    assert not ok


def test_light_traffic_discards_clamped_roots():
    # rho = lam / (K mu) ~ 0.4: the closing function picks up fake sign
    # changes where the chain had to clamp m^{-1}; the solver must land on
    # the feasible root, not the smallest scan crossing
    spec = SystemSpec(
        servers=6,
        mu=1.5876,
        arrival=Deterministic(rate=3.8935),
        valuation=ExponentialValuation(beta=0.7586),
    )
    res = solve_general(spec)
    assert res.theta_star == pytest.approx(1.8882, abs=2e-3)
    assert np.all(np.diff(res.deltas) > 0)
    assert np.max(np.abs(res.residuals)) <= 1e-9 * max(1.0, res.theta_star)

    dep = departure_matrix(spec.arrival, spec.mu, spec.servers)
    _, ok = g_chain_general(spec, dep, res.theta_star)
    assert ok
    # the crossing near 1.854 only exists because of clamping
    _, ok = g_chain_general(spec, dep, 1.8544)
    assert not ok


def test_input_validation():
    spec = spec_with(Deterministic(rate=25.0))
    dep = departure_matrix(spec.arrival, spec.mu, spec.servers)
    with pytest.raises(ValueError):
        g_chain_general(spec, dep, -1.0)
