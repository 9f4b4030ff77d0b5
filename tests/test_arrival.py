"""Interval laws: transforms, beta products, departure-count matrices."""

import decimal
import math

import numpy as np
import pytest

from farm_pricer import (
    Deterministic,
    Exponential,
    TwoPoint,
    UniformInterval,
    beta_seq,
    departure_matrix,
    lst,
)
from farm_pricer.arrival import (
    _check_survivor_identities,
    arrival_from_config,
    rare_long_gap_family,
    rare_unit_gap_family,
)
from farm_pricer.errors import ConfigError, QuadratureFailure

ALL_DISTS = [
    Exponential(rate=25.0),
    Deterministic(rate=25.0),
    UniformInterval.from_rate(25.0),
    TwoPoint(x1=0.1, p1=0.3, x2=0.02),
]


# ---------------------------------------------------------------- transforms

def test_lst_values():
    assert lst(Exponential(rate=25.0), 2.0) == pytest.approx(25.0 / 27.0)
    assert lst(Deterministic(rate=25.0), 2.0) == pytest.approx(math.exp(-0.08))
    for d in ALL_DISTS:
        assert lst(d, 0.0) == 1.0


def test_lst_uniform_explicit():
    d = UniformInterval(0.0, 2.0)
    s = 3.0
    # (1 - e^{-s hi}) / (s hi) for lo = 0
    assert lst(d, s) == pytest.approx((1 - math.exp(-6.0)) / 6.0)
    # small-s stability: phi(s) ~ 1 - s/lambda
    assert lst(d, 1e-12) == pytest.approx(1.0 - 1e-12, abs=1e-15)


def test_lst_bounds_and_monotone():
    s_grid = np.linspace(0.0, 50.0, 200)
    for d in ALL_DISTS:
        lam = 1.0 / d.mean
        vals = np.array([lst(d, s) for s in s_grid])
        assert np.all(np.diff(vals) <= 1e-12)
        # Jensen: e^{-s E[U]} <= phi(s) <= 1
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.all(vals >= np.exp(-s_grid / lam) - 1e-12)


def test_mean_normalization():
    for d in ALL_DISTS[:3]:
        assert d.mean == pytest.approx(1.0 / 25.0)


# ---------------------------------------------------------------- beta products

def test_beta_seq_poisson_closed_form():
    # beta_j = j! (mu/lambda)^j when phi(s) = lambda/(lambda+s)
    lam, mu = 25.0, 2.0
    b = beta_seq(Exponential(rate=lam), mu, 4)
    for j in range(5):
        assert b[j] == pytest.approx(math.factorial(j) * (mu / lam) ** j, rel=1e-12)
    assert b[2] == pytest.approx(0.0128)


def test_beta_seq_two_point_direct():
    m = 100.0
    d = TwoPoint(x1=math.sqrt(m), p1=1 / m, x2=1 / m)
    phi1 = 0.99 * math.exp(-0.01) + 0.01 * math.exp(-10.0)
    b = beta_seq(d, 1.0, 1)
    assert b[0] == 1.0
    assert b[1] == pytest.approx((1 - phi1) / phi1, rel=1e-12)


def test_beta_seq_validates():
    with pytest.raises(ValueError):
        beta_seq(Exponential(rate=1.0), -1.0, 3)
    with pytest.raises(ValueError):
        beta_seq(Exponential(rate=1.0), 1.0, 0)


# ---------------------------------------------------------------- departures

def test_departure_matrix_deterministic_half_life():
    # mu d = ln 2: each busy server flips a fair coin per interval
    mu = math.log(2.0)
    dep = departure_matrix(Deterministic(rate=1.0), mu, 2)
    assert dep.alpha[2, 1] == pytest.approx(0.5)
    assert dep.alpha[2, 0] == pytest.approx(0.25)
    assert dep.alpha[2, 2] == pytest.approx(0.25)


def test_departure_matrix_exponential_k1():
    # alpha_{1,1} = mu/(lambda+mu)
    dep = departure_matrix(Exponential(rate=25.0), 2.0, 1)
    assert dep.alpha[1, 1] == pytest.approx(2.0 / 27.0, rel=1e-12)
    assert dep.alpha[0, 0] == 1.0


def test_departure_matrix_rows_and_identities():
    for d in ALL_DISTS:
        dep = departure_matrix(d, 2.0, 6)
        # a_cum[i, j]: the chance that at most j of i busy servers survive
        a_cum = [np.cumsum(dep.alpha[i, : i + 1][::-1]) for i in range(7)]
        for k in range(7):
            assert dep.alpha[k, : k + 1].sum() == pytest.approx(1.0, abs=1e-9)
            # a_cum is a CDF over survivor counts
            assert a_cum[k][k] == pytest.approx(1.0, abs=1e-9)
        for i in range(1, 7):
            assert a_cum[i][i - 1] + dep.alpha[i, 0] == pytest.approx(1.0, abs=1e-9)
        for i in range(1, 6):
            assert np.all(a_cum[i + 1][:i] <= a_cum[i][:i] + 1e-9)
        for i in range(6):
            lhs = a_cum[i + 1][: i + 1].sum() - a_cum[i][:i].sum()
            assert lhs == pytest.approx(dep.alpha[1, 1], abs=1e-9)


def test_survivor_identity_checks_reject_broken_rows():
    # mu d = ln 2: each busy server finishes with probability 1/2, so row 3 is
    # (1, 3, 3, 1) / 8 with mean 3/2
    alpha = departure_matrix(Deterministic(rate=1.0), math.log(2.0), 3).alpha
    _check_survivor_identities(alpha)
    # same mean, but P(all 3 finish) = 1/2 exceeds P(both of 2 finish) = 1/4
    spread = alpha.copy()
    spread[3] = [0.5, 0.0, 0.0, 0.5]
    with pytest.raises(QuadratureFailure, match="tails rise"):
        _check_survivor_identities(spread)
    # still monotone in the busy count, but the mean drops to 11/8
    fewer = alpha.copy()
    fewer[3] = [0.25, 0.25, 0.375, 0.125]
    with pytest.raises(QuadratureFailure, match="mean departures"):
        _check_survivor_identities(fewer)
    # a NaN entry fails the checks instead of slipping past every comparison
    fewer[2, 1] = math.nan
    with pytest.raises(QuadratureFailure):
        _check_survivor_identities(fewer)


def test_uniform_quadrature_matches_monte_carlo():
    dep = departure_matrix(UniformInterval.from_rate(5.0), 2.0, 3)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 0.4, 400_000)
    for i in range(4):
        mc = np.mean(
            math.comb(3, i) * (1 - np.exp(-2 * x)) ** i * np.exp(-2 * x) ** (3 - i)
        )
        assert dep.alpha[3, i] == pytest.approx(mc, abs=2e-3)


@pytest.mark.parametrize("k", [1, 2, 5, 50])
def test_uniform_departure_matrix_is_exact(k):
    # Gauss-Legendre in y = e^{-mu x} against adaptive quadrature in x
    from scipy.integrate import quad

    mu = 2.0
    dists = [UniformInterval.from_rate(lam) for lam in (0.5, 4.0, 25.0, 100.0)]
    for d in dists + [UniformInterval(0.3, 0.9)]:
        alpha = departure_matrix(d, mu, k).alpha
        want = np.zeros_like(alpha)
        want[0, 0] = 1.0
        for kk in range(1, k + 1):
            for i in range(kk + 1):
                c = math.comb(kk, i) / (d.hi - d.lo)

                def integrand(x, i=i, kk=kk, c=c):
                    return c * (-math.expm1(-mu * x)) ** i * math.exp(-(kk - i) * mu * x)

                want[kk, i] = quad(integrand, d.lo, d.hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        assert np.max(np.abs(alpha - want)) <= 1e-13
        assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) <= 1e-12


def test_uniform_departure_matrix_nonnegative_in_heavy_traffic():
    # alpha_{k,k} is 1 plus a cancelling sum; in heavy traffic it is far
    # below rounding (1.5e-171 at k = 51, load 81.12) and must not go negative
    for k in (12, 39, 51, 94, 200):
        for load in (10.0, 30.0, 72.0, 81.12, 100.0):
            for mu in (0.22, 2.0):
                dep = departure_matrix(UniformInterval.from_rate(load * k * mu), mu, k)
                assert dep.alpha.min() >= 0.0, (k, load, mu)


def test_uniform_departure_matrix_heavy_traffic_to_rounding():
    # K=40, load 100: the rule's half-width e^{-mu lo} - e^{-mu hi} is tiny
    # and must not be formed by subtraction.  Reference: alpha_{k,i} =
    # C(k,i)/(hi-lo) sum_l C(i,l) (-1)^l int e^{-(k-i+l) mu x} dx in 80 digits
    k, mu = 40, 2.0
    d = UniformInterval.from_rate(100.0 * k * mu)
    alpha = departure_matrix(d, mu, k).alpha
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        lo, hi, dmu = (decimal.Decimal(v) for v in (d.lo, d.hi, mu))
        integral = [hi - lo] + [
            ((-j * dmu * lo).exp() - (-j * dmu * hi).exp()) / (j * dmu) for j in range(1, k + 1)
        ]
        worst = 0.0
        for kk in range(k + 1):
            for i in range(kk + 1):
                s = sum(math.comb(i, l) * (-1) ** l * integral[kk - i + l] for l in range(i + 1))
                ref = math.comb(kk, i) * s / (hi - lo)
                worst = max(worst, float(abs(decimal.Decimal(alpha[kk, i]) - ref)))
    assert worst <= 1e-15


def _alpha_40_digits(atoms, mu, k):
    """alpha rows of a gap law with atoms [(x, p)], in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        alpha = [[decimal.Decimal(0)] * (k + 1) for _ in range(k + 1)]
        for x, p in atoms:
            y = (-decimal.Decimal(mu) * decimal.Decimal(x)).exp()
            y_pow = [y**n for n in range(k + 1)]
            done_pow = [decimal.Decimal(p) * (1 - y) ** n for n in range(k + 1)]
            for kk in range(k + 1):
                for i in range(kk + 1):
                    alpha[kk][i] += math.comb(kk, i) * done_pow[i] * y_pow[kk - i]
    return alpha


@pytest.mark.parametrize("k, load", [(300, 50.0), (120, 10.0)], ids=["k300-load50", "k120-load10"])
def test_atom_laws_match_40_digit_reference(k, load):
    # heavy traffic: mu x is small, so 1 - e^{-mu x} formed by subtraction
    # would lose digits that (1 - y)^i raises to a power
    mu = 2.0
    lam = load * k * mu
    det = Deterministic(rate=lam)
    two = TwoPoint(x1=0.2 / lam, p1=0.5, x2=1.8 / lam)
    two_atoms = [(two.x1, two.p1), (two.x2, 1.0 - two.p1)]
    for dist, atoms in ((det, [(det.mean, 1.0)]), (two, two_atoms)):
        alpha = departure_matrix(dist, mu, k).alpha
        ref = _alpha_40_digits(atoms, mu, k)
        worst = 0.0
        for kk in range(k + 1):
            for i in range(kk + 1):
                if ref[kk][i] > decimal.Decimal("1e-300"):
                    rel = abs(decimal.Decimal(alpha[kk, i]) / ref[kk][i] - 1)
                    worst = max(worst, float(rel))
        assert worst <= 1e-13, (type(dist).__name__, worst)


def test_exponential_closed_form_vs_binomial_mixture():
    # TwoPoint degenerating to a single atom must equal the Deterministic matrix
    a1 = departure_matrix(TwoPoint(x1=0.04, p1=0.5, x2=0.04), 2.0, 4).alpha
    a2 = departure_matrix(Deterministic(rate=25.0), 2.0, 4).alpha
    np.testing.assert_allclose(a1, a2, atol=1e-12)


# ---------------------------------------------------------------- families

def test_rare_long_gap_family_mean_and_trend():
    for lam in (10.0, 100.0, 1000.0):
        d = rare_long_gap_family(lam)
        assert d.mean == pytest.approx(1.0 / lam, rel=1e-9)
    v = [lam * (1 - lst(rare_long_gap_family(lam), 2.0)) for lam in (1e2, 1e3, 1e4)]
    assert v[0] > v[1] > v[2]  # throughput potential collapses


def test_rare_unit_gap_family_mean():
    for lam in (10.0, 100.0):
        d = rare_unit_gap_family(lam)
        assert d.mean == pytest.approx(1.0 / lam, rel=1e-12)
        assert d.x1 == 1.0


# ---------------------------------------------------------------- config

def test_arrival_from_config():
    assert isinstance(arrival_from_config({"kind": "exponential", "rate": 2.0}), Exponential)
    assert isinstance(arrival_from_config({"kind": "deterministic", "rate": 2.0}), Deterministic)
    u = arrival_from_config({"kind": "uniform", "rate": 2.0})
    assert isinstance(u, UniformInterval) and u.hi == pytest.approx(1.0)
    u2 = arrival_from_config({"kind": "uniform", "lo": 0.1, "hi": 0.3})
    assert u2.lo == 0.1
    tp = arrival_from_config({"kind": "two_point", "x1": 1.0, "p1": 0.25, "x2": 0.5})
    assert isinstance(tp, TwoPoint)
    with pytest.raises(ConfigError):
        arrival_from_config({"kind": "weibull", "rate": 1.0})
    with pytest.raises(ConfigError):
        arrival_from_config({"kind": "exponential"})
    with pytest.raises(ConfigError):
        arrival_from_config({"kind": "exponential", "rate": -3.0})
