"""Occupancy distributions and the revenue identity against solver output."""

import math

import numpy as np
import pytest

from farm_pricer import (
    Deterministic,
    Exponential,
    ExponentialValuation,
    ConfigError,
    NoConvergence,
    SystemSpec,
    TabulatedTail,
    TwoPoint,
    UniformInterval,
    UniformValuation,
    blocking_prob,
    departure_matrix,
    evaluate,
    fixed_point,
    price_array,
    spec_from_config,
    revenue_rate,
    solve_general,
)
from farm_pricer.stationary import embedded_chain

VAL = ExponentialValuation(beta=1.0)


def poisson_spec(lam=25.0, mu=2.0, k=5, val=VAL):
    return SystemSpec(servers=k, mu=mu, arrival=Exponential(rate=lam), valuation=val)


# ----------------------------------------------------------------- poisson

def test_two_servers_free_entry():
    # rho = 1, Gbar = 1: weights (1, 1, 1/2) -> (2/5, 2/5, 1/5)
    spec = poisson_spec(lam=2.0, mu=2.0, k=2)
    pi = evaluate(spec, [0.0, 0.0]).pi
    np.testing.assert_allclose(pi, (0.4, 0.4, 0.2), rtol=1e-12)


def test_prohibitive_first_price_pins_system_empty():
    spec = poisson_spec(val=UniformValuation(lo=0.0, hi=2.0))
    pi = evaluate(spec, [5.0, 5.0, 5.0, 5.0, 5.0]).pi
    np.testing.assert_allclose(pi, (1.0, 0, 0, 0, 0, 0), atol=0)


def test_full_state_mass_is_blocking_probability():
    spec = poisson_spec()
    for p in (0.5, 1.2, 3.0):
        pi = evaluate(spec, [p] * 5).pi
        pb = blocking_prob(spec.arrival, VAL, spec.mu, 5, p)
        assert pi[-1] == pytest.approx(pb, rel=1e-10)


def loop_occupancy_and_rate(spec, prices):
    """Reference: the per-state product and revenue loops, renormalized past 1e250."""
    p = price_array(spec, prices)
    w = np.zeros(spec.servers + 1)
    w[0] = 1.0
    for i in range(spec.servers):
        w[i + 1] = w[i] * spec.rho * float(spec.valuation.tail(p[i])) / (i + 1)
        if w[i + 1] == 0.0:
            break
        if w[i + 1] > 1e250:
            w[: i + 2] /= w[i + 1]
    pi = w / w.sum()
    total = 0.0
    for i in range(spec.servers):
        gbar = float(spec.valuation.tail(p[i]))
        if gbar > 0.0 and math.isfinite(p[i]):
            total += pi[i] * spec.arrival_rate * gbar * p[i]
    return pi, total


def test_product_form_matches_per_state_loop():
    rng = np.random.default_rng(5)
    for k, load in ((1, 0.5), (5, 2.5), (40, 0.3), (160, 3.0), (1000, 20.0)):
        for val in (VAL, UniformValuation(lo=0.0, hi=2.0)):
            spec = poisson_spec(lam=load * k * 2.0, k=k, val=val)
            prices = np.sort(rng.uniform(0.0, 2.5, k))
            pi, rate = loop_occupancy_and_rate(spec, prices)
            closed = evaluate(spec, prices).pi
            np.testing.assert_allclose(closed, pi, rtol=1e-12, atol=1e-15)
            assert revenue_rate(spec, prices) == pytest.approx(rate, rel=1e-14)


def test_embedded_chain_recovers_poisson_occupancy():
    spec = poisson_spec()
    prices = fixed_point(spec).prices
    dep = departure_matrix(spec.arrival, spec.mu, spec.servers)
    occ_closed = evaluate(spec, prices).pi
    occ_chain = evaluate(spec, prices, dep).pi
    np.testing.assert_allclose(occ_chain, occ_closed, atol=1e-8)


@pytest.mark.parametrize("k", [2, 12, 160, 1000])
def test_censored_chain_matches_closed_form(k):
    # at K=1000, load 20 the busy-count weights pass 1e250
    rng = np.random.default_rng(k)
    for load in (0.05, 1.0, 20.0):
        for val in (VAL, UniformValuation(lo=0.0, hi=2.0)):
            spec = poisson_spec(lam=load * k * 2.0, k=k, val=val)
            dep = departure_matrix(spec.arrival, spec.mu, k)
            prices = np.sort(rng.uniform(0.0, 1.8, k))
            chain = evaluate(spec, prices, dep).pi
            closed = evaluate(spec, prices).pi
            assert np.max(np.abs(chain - closed)) <= 1e-13, (load, val)


# ----------------------------------------------------------------- general

def test_single_server_chain_closed_form():
    spec = SystemSpec(
        servers=1, mu=2.0, arrival=Deterministic(rate=5.0), valuation=VAL
    )
    dep = departure_matrix(spec.arrival, spec.mu, 1)
    p0 = 0.8
    gamma = math.exp(-p0)
    a10, a11 = dep[1, 1], dep[1, 0]
    pi = evaluate(spec, [p0], dep).pi
    denom = a11 + gamma * a10
    np.testing.assert_allclose(pi, (a11 / denom, gamma * a10 / denom), rtol=1e-12)


@pytest.mark.parametrize(
    "arrival, val",
    [
        (Deterministic(rate=4.0), VAL),
        (UniformInterval.from_rate(30.0), UniformValuation(lo=0.0, hi=2.0)),
        (TwoPoint(x1=0.01, p1=0.5, x2=0.09), TabulatedTail(xs=(0.0, 1.0, 2.0), gs=(1.0, 0.5, 0.3))),
    ],
    ids=["det", "unif", "two_point"],
)
def test_embedded_chain_matches_loop_reference(arrival, val):
    k = 12
    S = departure_matrix(arrival, 2.0, k)
    prices = np.append(np.linspace(0.3, 2.5, k), np.inf)  # some above 2: Gbar = 0
    gbar = val.tail(prices)
    P = embedded_chain(S, gbar)
    ref = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(i + 1):
            ref[i, j] += (1.0 - gbar[i]) * S[i, j]
        for j in range(i + 2 if i < k else 0):
            ref[i, j] += gbar[i] * S[i + 1, j]
    assert np.array_equal(P, ref)
    # every row of the one-step matrix is a distribution
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=1e-12)


def test_unreachable_states_are_cut():
    spec = SystemSpec(
        servers=3,
        mu=2.0,
        arrival=UniformInterval.from_rate(6.0),
        valuation=UniformValuation(lo=0.0, hi=2.0),
    )
    dep = departure_matrix(spec.arrival, spec.mu, 3)
    pi = evaluate(spec, [0.5, 2.5, 0.1], dep).pi
    assert pi[2] == 0.0 and pi[3] == 0.0
    assert pi[:2].sum() == pytest.approx(1.0, rel=1e-12)
    assert pi[1] > 0


def dense_occupancy(spec, dep, prices):
    """Reference: solve pi = pi P with one equation replaced by sum(pi) = 1.

    States above the first zero-acceptance price are cut before the solve.
    """
    p = price_array(spec, prices)
    gbar = spec.valuation.tail(p)
    n = int(np.flatnonzero(gbar == 0.0)[0]) + 1
    P = embedded_chain(dep, gbar)[:n, :n]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.zeros(spec.servers + 1)
    pi[:n] = np.clip(np.linalg.solve(A, rhs), 0.0, None)
    return pi / pi.sum()


def test_censored_product_form_matches_dense_solve():
    # the bound covers the reference: in heavy traffic the dense solve is
    # off by up to 1.8e-11 from 40-digit arithmetic on the same P (case 66:
    # K=258, load 41, uniform gaps), where the product form is within 6e-17
    vals = [VAL, UniformValuation(lo=0.0, hi=2.0),
            TabulatedTail(xs=(0.0, 0.5, 1.0, 2.0, 4.0), gs=(1.0, 0.8, 0.6, 0.3, 0.0))]  # fmt: skip
    rng = np.random.default_rng(8)
    for case in range(96):
        k = int(rng.integers(1, 301))
        load, mu = 10 ** rng.uniform(-2.0, 2.0), 10 ** rng.uniform(math.log10(0.2), math.log10(5.0))
        lam = load * k * mu
        arrival = [Exponential(rate=lam), Deterministic(rate=lam), UniformInterval.from_rate(lam),
                   TwoPoint(x1=0.5 / lam, p1=0.5, x2=1.5 / lam)][case % 4]  # fmt: skip
        spec = SystemSpec(servers=k, mu=mu, arrival=arrival, valuation=vals[case // 4 % 3])
        dep = departure_matrix(arrival, mu, k)
        prices = np.sort(rng.uniform(0.0, 2.5, k))
        pi = evaluate(spec, prices, dep).pi
        assert np.max(np.abs(pi - dense_occupancy(spec, dep, prices))) <= 5e-11, case


def test_stationarity_certificate_rejects_broken_departure_matrix():
    spec = SystemSpec(servers=4, mu=2.0, arrival=Deterministic(rate=5.0), valuation=VAL)
    dep = departure_matrix(spec.arrival, spec.mu, 4)
    halved = 0.5 * dep
    no_departures = np.eye(5)  # S[i, i] = 1: nobody ever leaves
    for broken in (halved, no_departures):
        with np.errstate(all="ignore"), pytest.raises(NoConvergence):
            evaluate(spec, [0.5] * 4, broken)


@pytest.mark.parametrize(
    "arrival", [Deterministic(rate=25.0), UniformInterval.from_rate(500.0),
                TwoPoint(x1=0.01, p1=0.5, x2=0.07)], ids=["det", "unif", "two_point"],
)  # fmt: skip
def test_renewal_evaluate_builds_the_departure_matrix_it_is_not_given(arrival):
    k = 30
    spec = SystemSpec(k, 2.0, arrival, UniformValuation(lo=0.0, hi=2.0))
    prices = np.append(np.linspace(0.4, 1.9, k - 1), np.inf)
    theta, pi = evaluate(spec, prices)
    given = evaluate(spec, prices, departure_matrix(arrival, 2.0, k))
    assert float(theta).hex() == float(given.theta).hex()
    assert [x.hex() for x in pi.tolist()] == [x.hex() for x in given.pi.tolist()]


# ----------------------------------------------------------------- revenue

def test_revenue_identity_uniform_price():
    spec = poisson_spec()
    for p in (0.7, 1.4):
        want = (
            spec.arrival_rate
            * p
            * math.exp(-p)
            * (1.0 - blocking_prob(spec.arrival, VAL, spec.mu, 5, p))
        )
        assert revenue_rate(spec, [p] * 5) == pytest.approx(want, rel=1e-9)


def test_revenue_at_solver_prices_equals_theta_poisson():
    spec = poisson_spec()
    res = fixed_point(spec)
    assert revenue_rate(spec, res.prices) == pytest.approx(res.theta_star, rel=1e-6)


def test_revenue_at_solver_prices_equals_theta_general():
    spec = SystemSpec(
        servers=5, mu=2.0, arrival=Deterministic(rate=25.0), valuation=VAL
    )
    res = solve_general(spec)
    dep = departure_matrix(spec.arrival, spec.mu, 5)
    assert revenue_rate(spec, res.prices, dep=dep) == pytest.approx(res.theta_star, rel=1e-6)


def test_suboptimal_prices_earn_less():
    spec = poisson_spec()
    res = fixed_point(spec)
    assert revenue_rate(spec, res.prices + 0.3) < res.theta_star
    assert revenue_rate(spec, np.maximum(res.prices - 0.3, 0.0)) < res.theta_star


# ----------------------------------------------------------------- plumbing

def test_price_vector_validation():
    spec = poisson_spec(k=3)
    p = price_array(spec, [1.0, 2.0, 3.0])
    assert p.shape == (4,) and math.isinf(p[3])
    p = price_array(spec, [1.0, 2.0, 3.0, math.inf])
    assert p.shape == (4,)
    with pytest.raises(ValueError):
        price_array(spec, [1.0, 2.0])
    with pytest.raises(ValueError):
        price_array(spec, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        price_array(spec, [1.0, math.nan, 3.0])
    with pytest.raises(ValueError):
        price_array(spec, [1.0, 2.0, -math.inf])


def test_server_count_is_a_positive_integer():
    spec = SystemSpec(np.int64(5), 2.0, Exponential(rate=25.0), VAL)
    assert spec.servers == 5 and type(spec.servers) is int
    for bad in (5.7, 5.0, True, 0, -3, "5"):
        with pytest.raises(ValueError, match="servers"):
            SystemSpec(bad, 2.0, Exponential(rate=25.0), VAL)


def test_rates_are_not_bools():
    for make in (lambda: SystemSpec(5, True, Exponential(rate=25.0), VAL),
                 lambda: Exponential(rate=True),
                 lambda: ExponentialValuation(beta=True)):  # fmt: skip
        with pytest.raises(ValueError, match="must be positive and finite, got True"):
            make()


@pytest.mark.parametrize(
    "field, law",
    [("arrival", ExponentialValuation(beta=1.0)), ("valuation", Exponential(rate=1.0))],
    ids=["arrival", "valuation"],
)
def test_laws_of_the_wrong_family_are_rejected(field, law):
    laws = {"arrival": Exponential(rate=25.0), "valuation": VAL, field: law}
    with pytest.raises(ValueError, match=f"^{field} must be one of"):
        SystemSpec(5, 2.0, **laws)


def test_config_server_count_is_a_positive_integer():
    cfg = {"mu": 2.0, "lambda": 25.0, "valuation": {"kind": "exponential", "beta": 1.0}}
    spec = spec_from_config({**cfg, "servers": np.int64(5)})
    assert spec.servers == 5 and type(spec.servers) is int
    for bad in (5.7, 5.0, True, False, 0, "5", None):
        with pytest.raises(ConfigError) as err:
            spec_from_config({**cfg, "servers": bad})
        assert err.value.key == "servers"
    with pytest.raises(ConfigError) as err:
        spec_from_config(cfg)
    assert err.value.key == "servers"


CFG = {"servers": 3, "mu": 2.0, "lambda": 25.0, "valuation": {"kind": "exponential", "beta": 1.0}}


@pytest.mark.parametrize(
    "cfg, key",
    [
        ([CFG], "system"),
        ({k: v for k, v in CFG.items() if k != "mu"}, "mu"),
        ({**CFG, "mu": "fast"}, "mu"),
        ({k: v for k, v in CFG.items() if k != "lambda"}, "arrival"),
        ({k: v for k, v in CFG.items() if k != "valuation"}, "valuation"),
        ({**CFG, "mu": 0.0}, "mu"),
        ({**CFG, "mu": -1.0}, "mu"),
        ({**CFG, "mu": math.nan}, "mu"),
        ({**CFG, "mu": math.inf}, "mu"),
        ({**CFG, "valuation": {"kind": "table", "xs": [0, math.nan, 2], "gs": [1, 0.5, 0]}},
         "valuation"),
        ({**CFG, "valuation": {"kind": "table", "xs": [0, 1, math.inf], "gs": [1, 0.5, 0]}},
         "valuation"),
        ({**CFG, "valuation": {"kind": "table", "xs": "012", "gs": [1, 0.5, 0]}}, "valuation"),
        ({**CFG, "valuation": {"kind": "table", "xs": {"0": 1, "1": 2, "2": 3}, "gs": [1, 0.5, 0]}},
         "valuation"),
        ({**CFG, "mu": True}, "mu"),
        ({**CFG, "lambda": True}, "lambda"),
        ({**CFG, "arrival": {"kind": "det", "rate": True}}, "arrival"),
        ({**CFG, "arrival": {"kind": "uniform", "lo": False, "hi": 0.1}}, "arrival"),
        ({**CFG, "valuation": {"kind": "exp", "beta": True}}, "valuation"),
        ({**CFG, "valuation": {"kind": "table", "xs": [0, True, 2], "gs": [1, 0.5, 0]}},
         "valuation"),
        ({**CFG, "valuation": {"kind": "table", "xs": [0, 1, 2], "gs": [True, 0.5, 0]}},
         "valuation"),
    ],
    ids=["not-an-object", "missing-mu", "non-numeric-mu", "missing-arrival", "missing-valuation",
         "zero-mu", "negative-mu", "nan-mu", "infinite-mu", "nan-knot", "infinite-knot",
         "string-knots", "object-knots", "bool-mu", "bool-lambda", "bool-arrival-rate",
         "bool-interval-end", "bool-beta", "bool-x-knot", "bool-g-knot"],
)  # fmt: skip
def test_config_errors_name_their_key(cfg, key):
    with pytest.raises(ConfigError) as err:
        spec_from_config(cfg)
    assert err.value.key == key
