"""Uniform-price revenue, blocking, gap bounds, asymptotic diagnostics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from farm_pricer import (
    Deterministic,
    Exponential,
    ExponentialValuation,
    NoConvergence,
    NoFiniteMaximizer,
    ParetoValuation,
    SystemSpec,
    TabulatedTail,
    TwoPoint,
    UniformInterval,
    UniformValuation,
    asymptotic_mu_tilde,
    blocking_prob,
    fixed_point,
    log_beta_seq,
    optimize_uniform,
    revenue_uniform,
    solve_general,
)
from farm_pricer import uniform_pricing
from farm_pricer.uniform_pricing import _curve


def erlang_b(k: int, a: float) -> float:
    """Independent oracle: the standard stable recursion."""
    e = 1.0
    for j in range(1, k + 1):
        e = a * e / (j + a * e)
    return e


VAL = ExponentialValuation(beta=1.0)


# ---------------------------------------------------------------- blocking

def test_blocking_single_server_full_acceptance():
    lam, mu = 3.0, 2.0
    pb = blocking_prob(Exponential(rate=lam), VAL, mu, 1, 0.0)
    assert pb == pytest.approx((lam / mu) / (1 + lam / mu), rel=1e-12)


def test_blocking_matches_erlang_b_randomized():
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = int(rng.integers(1, 51))
        rho = float(rng.uniform(0.01, 50.0))
        p = float(rng.uniform(0.0, 6.0))
        mu = float(rng.uniform(0.2, 4.0))
        pb = blocking_prob(Exponential(rate=rho * mu), VAL, mu, k, p)
        assert abs(pb - erlang_b(k, rho * math.exp(-p))) < 1e-10


def test_blocking_vanishing_acceptance():
    # Gbar(p) = 0: nobody enters, nobody is blocked
    v = TabulatedTail(xs=(0.0, 1.0), gs=(1.0, 0.0))
    assert blocking_prob(Exponential(rate=5.0), v, 1.0, 3, 2.0) == 0.0


def test_blocking_monotone_in_price_and_servers():
    d = UniformInterval.from_rate(12.0)
    ps = np.linspace(0.0, 3.0, 25)
    pbs = [blocking_prob(d, VAL, 2.0, 4, p) for p in ps]
    assert np.all(np.diff(pbs) <= 1e-12)
    for p in (0.3, 1.0):
        by_k = [blocking_prob(d, VAL, 2.0, k, p) for k in range(1, 9)]
        assert np.all(np.diff(by_k) <= 1e-12)


# ---------------------------------------------------------------- revenue

def test_revenue_edges():
    d = Exponential(rate=10.0)
    assert revenue_uniform(d, VAL, 2.0, 3, 0.0) == 0.0
    v0 = TabulatedTail(xs=(0.0, 1.0), gs=(1.0, 0.0))
    assert revenue_uniform(d, v0, 2.0, 3, 1.5) == 0.0
    with pytest.raises(ValueError):
        revenue_uniform(d, VAL, 2.0, 3, -0.1)


def test_nan_price_and_bad_server_counts_are_rejected():
    d = Exponential(rate=10.0)
    with pytest.raises(ValueError, match="NaN"):
        blocking_prob(d, VAL, 2.0, 3, math.nan)
    with pytest.raises(ValueError, match="price must be >= 0, got nan"):
        revenue_uniform(d, VAL, 2.0, 3, math.nan)
    for k in (0, -1, True, 2.5, 3.0):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            blocking_prob(d, VAL, 2.0, k, 1.0)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            revenue_uniform(d, VAL, 2.0, k, 1.0)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            optimize_uniform(d, VAL, 2.0, k)


def test_numpy_server_count_and_infinite_price():
    d = Exponential(rate=10.0)
    k = np.int64(3)
    assert blocking_prob(d, VAL, 2.0, k, 1.0) == blocking_prob(d, VAL, 2.0, 3, 1.0)
    assert revenue_uniform(d, VAL, 2.0, k, 1.0) == revenue_uniform(d, VAL, 2.0, 3, 1.0)
    assert optimize_uniform(d, VAL, 2.0, k) == optimize_uniform(d, VAL, 2.0, 3)
    # p = +inf: nobody joins
    assert blocking_prob(d, VAL, 2.0, 3, math.inf) == 0.0
    assert revenue_uniform(d, VAL, 2.0, 3, math.inf) == 0.0


def test_revenue_formula_matches_erlang_oracle():
    lam, mu, k = 20.0, 2.0, 5
    for p in (0.25, 0.8, 1.3, 2.6):
        gbar = math.exp(-p)
        want = lam * p * gbar * (1 - erlang_b(k, lam / mu * gbar))
        got = revenue_uniform(Exponential(rate=lam), VAL, mu, k, p)
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- optimize

def test_optimize_uniform_five_servers():
    res = optimize_uniform(Exponential(rate=20.0), VAL, 2.0, 5)
    assert res.p_star_inf == pytest.approx(1.0, abs=1e-9)
    assert res.revenue_inf_bound == pytest.approx(20.0 / math.e, rel=1e-9)
    assert res.revenue_K == pytest.approx(6.468048002, rel=1e-6)
    assert res.p_star_K >= res.p_star_inf - 1e-9
    assert res.revenue_K <= res.revenue_inf_bound


def test_optimize_uniform_is_scale_invariant():
    # scaling every valuation by 1/beta scales the optimal price and its
    # revenue by 1/beta; the zoom must polish a price of 1e-10 as finely
    ref = optimize_uniform(Exponential(rate=25.0), VAL, 2.0, 5)
    for beta in (1e-10, 1e10):
        res = optimize_uniform(Exponential(rate=25.0), ExponentialValuation(beta=beta), 2.0, 5)
        assert res.p_star_K * beta == pytest.approx(ref.p_star_K, rel=1e-9), beta
        assert res.revenue_K * beta == pytest.approx(ref.revenue_K, rel=1e-12), beta


@pytest.mark.parametrize("k", [200, 1000])
@pytest.mark.parametrize("arrival", [Deterministic(rate=0.5), TwoPoint(2.0, 0.5, 2.0)])
def test_optimize_uniform_where_phi_underflows(arrival, k):
    # phi(j mu) = e^{-4 j} underflows from j = 187 on; the beta products are
    # summed from log phi, so blocking is nil and revenue is lambda max p e^{-p}
    res = optimize_uniform(arrival, VAL, 2.0, k)
    assert res.revenue_K == pytest.approx(0.5 / math.e, rel=1e-12)


def test_optimize_uniform_pinned_heavier_load():
    # K=5, lambda=25, mu=2
    res = optimize_uniform(Exponential(rate=25.0), VAL, 2.0, 5)
    assert res.p_star_K == pytest.approx(1.416164575507007, rel=1e-7)
    assert res.revenue_K == pytest.approx(7.620801236777591, rel=1e-7)
    assert res.revenue_inf_bound == pytest.approx(25.0 / math.e, rel=1e-9)
    assert res.gap_upper == pytest.approx(10.180815530266816, rel=1e-7)
    assert res.revenue_K <= res.gap_upper


def test_optimize_uniform_ten_servers():
    res = optimize_uniform(Exponential(rate=50.0), VAL, 2.0, 10)
    assert res.revenue_K == pytest.approx(16.466, abs=0.02)


def test_revenue_monotone_in_servers():
    revs = [optimize_uniform(Exponential(rate=20.0), VAL, 2.0, k).revenue_K for k in range(1, 9)]
    assert np.all(np.diff(revs) >= -1e-9)


def test_p_star_dominates_infinite_server_price():
    for k in (1, 2, 5, 12):
        for lam in (2.0, 10.0, 40.0):
            res = optimize_uniform(Exponential(rate=lam), VAL, 2.0, k)
            assert res.p_star_K >= res.p_star_inf - 1e-6


def test_optimize_uniform_price_on_final_atom():
    # revenue is 12.350743 at p = 2, where the tail holds an atom, and 0 just
    # past it: the grid end is a finite maximizer
    val = TabulatedTail(xs=(0.0, 1.0, 2.0), gs=(1.0, 0.5, 0.3))
    res = optimize_uniform(Exponential(rate=25.0), val, 2.0, 5)
    assert res.p_star_K == 2.0
    assert res.revenue_K == pytest.approx(12.350743274594699, rel=1e-9)
    assert res.revenue_K <= res.gap_upper
    # with an atom of 0.4, p Gbar(p) peaks at the atom and is 0 just past it:
    # a finite maximizer, and no state-dependent policy earns more
    val = TabulatedTail(xs=(0.0, 1.0, 2.0), gs=(1.0, 0.5, 0.4))
    for dist in (Exponential(rate=5.0), Deterministic(rate=5.0)):
        res = optimize_uniform(dist, val, 2.0, 3)
        theta = solve_general(SystemSpec(3, 2.0, dist, val)).theta_star
        assert res.p_star_K == 2.0
        assert res.revenue_K == pytest.approx(theta, rel=1e-12)
    spec = SystemSpec(3, 2.0, Exponential(rate=5.0), val)
    assert fixed_point(spec).theta_star == pytest.approx(3.75, rel=1e-9)


def test_no_finite_maximizer_for_heavy_tail():
    # u Gbar(u) -> theta from below: revenue keeps rising in p
    with pytest.raises(NoFiniteMaximizer):
        optimize_uniform(Exponential(rate=5.0), ParetoValuation(theta=1.0), 2.0, 2)


def test_supremum_at_the_tail_quantile_is_a_finite_maximizer():
    # p Gbar(p) peaks at 500 at p = 5e11, which is also the 1e-9 tail
    # quantile: the supremum is attained there, so a finite price is optimal
    val = TabulatedTail(xs=(0.0, 1.0, 1e12), gs=(1.0, 2e-9, 0.0))
    res = optimize_uniform(Exponential(rate=5.0), val, 2.0, 3)
    theta = fixed_point(SystemSpec(3, 2.0, Exponential(rate=5.0), val)).theta_star
    assert res.p_star_K == pytest.approx(5e11, rel=1e-6)
    assert res.revenue_K <= theta + 1e-9 * theta
    assert theta <= res.gap_upper + 1e-9 * theta


@pytest.mark.parametrize(
    "val, p_star, revenue",
    [(VAL, 24.339983603052907, 70.21297371716108),
     (UniformValuation(0.0, 2.0), 1.9999979983721345, 5.999988000076101)],
    ids=["exp", "uniform"],
)  # fmt: skip
def test_grid_grows_until_no_price_past_its_end_can_win(val, p_star, revenue):
    # 1e12 arrivals per unit time keep 3 servers full far past Q(1e-9), so
    # the best price lies at or past the first grid's end
    dist, q = Deterministic(rate=1e12), val.tail_quantile(1e-9)
    res = optimize_uniform(dist, val, 1.0, 3)
    assert res.p_star_K == pytest.approx(p_star, rel=1e-7)
    assert res.revenue_K == pytest.approx(revenue, rel=1e-12)
    assert res.revenue_K == revenue_uniform(dist, val, 1.0, 3, res.p_star_K)
    ps = np.linspace(0.5 * q, 4.0 * q, 20001)
    gbar, block, _ = _curve(dist, val, 1.0, 3)[0](ps)
    assert np.max(1e12 * ps * gbar * (1.0 - block)) <= res.revenue_K


def test_grid_end_search_reports_an_overflowing_revenue_curve():
    # lam p overflows on most of the grid, so revenue reads inf or NaN there
    # and no grid end is ever certified
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NoConvergence, match=r"revenue past p = 1\.35812e\+306"):
            optimize_uniform(Deterministic(rate=1e300), ExponentialValuation(beta=1e-300), 1.0, 3)


def test_grid_end_search_gives_up_after_its_doublings(monkeypatch):
    monkeypatch.setattr(uniform_pricing, "_GRID_DOUBLINGS", 0)
    with pytest.raises(NoConvergence, match="may still beat the best grid price"):
        optimize_uniform(Deterministic(rate=1e12), VAL, 1.0, 3)


@pytest.mark.parametrize(
    "rate, val",
    [(1e20, UniformValuation(0.0, 2.0)), (1e300, VAL)],
    ids=["uniform-1e20", "exp-1e300"],
)
def test_price_picked_by_rounding_is_no_convergence(rate, val):
    # where 1 - pi_K is below 1e-9 its rounding error decides the comparison:
    # at rate 1e300 the zoom settles on a price whose computed revenue is
    # twice K mu p, more than any policy can earn
    with pytest.raises(NoConvergence, match="1 - pi_K = .* is below 1e-9"):
        optimize_uniform(Deterministic(rate=rate), val, 1.0, 3)


def test_gap_upper_is_infinite_where_blocking_at_p_inf_rounds_to_one():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimize_uniform(Deterministic(rate=1e17), VAL, 1.0, 3)
    assert res.gap_upper == math.inf
    assert res.revenue_K == pytest.approx(103.64815931355344, rel=1e-12)


# ---------------------------------------------------------------- gap bounds

def test_gap_bound_orders():
    for dist in (Exponential(rate=25.0), Deterministic(rate=25.0)):
        res = optimize_uniform(dist, VAL, 2.0, 5)
        lower, upper, coarse = res.revenue_K, res.gap_upper, res.coarse_gap
        assert 0 < lower <= upper
        assert upper <= lower + coarse + 1e-9


def test_gap_bound_poisson_coarse_factor():
    # beta_1 = mu/lambda, so the coarse factor is 1 + rho/K
    lam, mu, k = 25.0, 2.0, 5
    res = optimize_uniform(Exponential(rate=lam), VAL, mu, k)
    lower, coarse = res.revenue_K, res.coarse_gap
    rho = lam / mu
    assert lower + coarse == pytest.approx(lower * (1 + rho / k), rel=1e-9)


def test_coarse_gap_is_zero_where_beta_1_overflows():
    # beta_1 = (1 - phi(mu)) / phi(mu) = e^1000 - 1 for gaps of length 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimize_uniform(Deterministic(rate=0.001), VAL, 1.0, 3)
    assert res.coarse_gap == 0.0
    assert res.revenue_K == pytest.approx(0.001 / math.e, rel=1e-12)


# ---------------------------------------------------------------- asymptotics

def test_mu_tilde_poisson_family():
    vals = asymptotic_mu_tilde("poisson", 2.0, [1e2, 1e3, 1e4])
    np.testing.assert_allclose(vals, [2 * l / (l + 2) for l in (1e2, 1e3, 1e4)], rtol=1e-12)
    assert vals[-1] == pytest.approx(2.0, rel=1e-3)


def test_mu_tilde_rare_long_gap_collapses():
    vals = asymptotic_mu_tilde("rare-long-gap", 2.0, [1e2, 1e3, 1e4])
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-2


def test_mu_tilde_accepts_callable_and_validates():
    vals = asymptotic_mu_tilde(lambda lam: Exponential(rate=lam), 1.0, [10.0, 100.0])
    assert vals[1] == pytest.approx(100.0 / 101.0 * 1.0, rel=1e-12)
    # phi(2) = e^{-2000} underflows; 1 - phi does not
    assert asymptotic_mu_tilde(lambda lam: Deterministic(rate=lam), 2.0, [1e-3])[0] == 1e-3
    with pytest.raises(ValueError):
        asymptotic_mu_tilde("poisson", 1.0, [100.0, 10.0])
    with pytest.raises(ValueError):
        asymptotic_mu_tilde("cauchy", 1.0, [10.0, 100.0])


# ---------------------------------------------------------------- scaling laws

def test_pareto_scaled_price_grows_linearly():
    # price lambda*theta keeps the admitted rate at 1; revenue tracks lambda
    theta, mu, k = 2.0, 2.0, 5
    revs = []
    for lam in (1e2, 1e3, 1e4):
        revs.append(
            revenue_uniform(Exponential(rate=lam), ParetoValuation(theta=theta), mu, k, lam * theta)
        )
    assert revs[1] / revs[0] == pytest.approx(10.0, rel=0.05)
    assert revs[2] / revs[1] == pytest.approx(10.0, rel=0.05)


def test_gaussian_tail_log_price_decays():
    xs = np.linspace(0.0, 12.0, 3000)
    v = TabulatedTail(xs=tuple(xs), gs=tuple(np.exp(-(xs**2))))
    revs = [
        revenue_uniform(Exponential(rate=lam), v, 2.0, 5, math.log(lam))
        for lam in (1e2, 1e3, 1e4)
    ]
    assert revs[0] > revs[1] > revs[2]
    assert revs[2] < 1e-2


# ---------------------------------------------------------------- tabulated humps

def test_knot_peaked_hump_is_not_missed_by_the_grid():
    # the first knot earns the most, but the log grid alone read its hump
    # low and settled on a lower hump: gap_upper fell below theta*
    val = TabulatedTail(
        xs=(0.0, 4.271379858029836, 4.487885493912459, 5.621261186704473,
            5.909482004237952, 7.109567839651361),
        gs=(1.0, 0.7889130393407852, 0.727468390657021, 0.5952407860215746,
            0.4047100195002603, 0.22088250635854312),
    )  # fmt: skip
    dist = Deterministic(rate=0.7311179297449936)
    res = optimize_uniform(dist, val, 2.0, 2)
    theta = solve_general(SystemSpec(2, 2.0, dist, val)).theta_star
    assert res.revenue_K >= revenue_uniform(dist, val, 2.0, 2, res.p_star_inf)
    assert res.revenue_K <= theta * (1.0 + 1e-12)
    assert theta <= res.gap_upper * (1.0 + 1e-12)


def test_best_uniform_revenue_beats_the_infinite_server_price_on_random_tables():
    rng = np.random.default_rng(31)
    laws = (Exponential, Deterministic, UniformInterval.from_rate)
    for case in range(200):
        n = int(rng.integers(2, 6))
        xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 2.0, n))))
        gs = np.concatenate(([1.0], np.sort(rng.uniform(0.0, 1.0, n))[::-1]))
        val = TabulatedTail(tuple(xs), tuple(gs))
        k = int(rng.choice([1, 2, 5, 20, 100]))
        dist = laws[case % 3](float(10 ** rng.uniform(-1.0, 1.0) * k * 2.0))
        res = optimize_uniform(dist, val, 2.0, k)
        at_inf = revenue_uniform(dist, val, 2.0, k, res.p_star_inf)
        assert at_inf <= res.revenue_K * (1.0 + 1e-12), case


# ---------------------------------------------------------------- one-pass grid

TABLE7 = TabulatedTail(
    xs=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0), gs=(1.0, 0.9, 0.7, 0.45, 0.3, 0.1, 0.0)
)
VALUATIONS = {"exp": VAL, "uniform": UniformValuation(lo=0.0, hi=2.0), "table7": TABLE7}


def arrival_law(kind: str, lam: float):
    return {
        "exp": Exponential(rate=lam),
        "det": Deterministic(rate=lam),
        "two": TwoPoint(x1=0.2 / lam, p1=0.5, x2=1.8 / lam),
        "uni": UniformInterval.from_rate(lam),
    }[kind]


def rate_for(k: int) -> float:
    # K=5 at the reference rate; large K at load 5 per server, where blocking binds
    return 25.0 if k == 5 else 10.0 * k


ONE_PASS_CASES = [
    (a, v, k) for a in ("exp", "det", "two", "uni") for v in VALUATIONS for k in (5, 200, 1000)
]


@pytest.mark.parametrize("arrival,valuation,k", ONE_PASS_CASES)
def test_grid_revenue_matches_scalar_path(arrival, valuation, k):
    dist, val = arrival_law(arrival, rate_for(k)), VALUATIONS[valuation]
    res = optimize_uniform(dist, val, 2.0, k)
    assert res.revenue_K == pytest.approx(
        revenue_uniform(dist, val, 2.0, k, res.p_star_K), rel=1e-14
    )
    curve = _curve(dist, val, 2.0, k)[0]
    ps = np.geomspace(1e-3, val.tail_quantile(1e-9), 16)
    scalar = [blocking_prob(dist, val, 2.0, k, p) for p in ps]
    np.testing.assert_allclose(curve(ps)[1], scalar, rtol=1e-14, atol=0.0)
    # optimize_uniform skips the log-sum-exp where lam p Gbar(p) is below a
    # revenue already earned; that needs the revenue at or below it exactly
    q_hi = val.tail_quantile(1e-9)
    grid = np.geomspace(max(q_hi * 1e-9, 1e-300), q_hi, 512)
    assert np.all(curve(grid)[2] <= 1.0 / dist.mean * grid * val.tail(grid))


# (arrival, valuation, K) -> (revenue_K, gap_upper), computed by the
# per-price blocking_prob loop that the one-pass grid replaced
PINNED = {
    ("exp", "exp", 5): (7.6208012367775906, 10.180815530266816),
    ("det", "uniform", 5): (9.0605879227538573, 13.916106841578548),
    ("two", "table7", 5): (12.543458374198288, 22.611254418545855),
    ("uni", "exp", 200): (614.55595768001911, 1136.2174287096852),
    ("det", "table7", 200): (948.49607885080343, 2850.4476051129036),
    ("exp", "exp", 1000): (3151.1105678725116, 5803.0215773777809),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_optimize_uniform_pinned_values(case):
    arrival, valuation, k = case
    res = optimize_uniform(arrival_law(arrival, rate_for(k)), VALUATIONS[valuation], 2.0, k)
    revenue, gap_upper = PINNED[case]
    assert res.revenue_K == pytest.approx(revenue, rel=1e-12)
    assert res.gap_upper == pytest.approx(gap_upper, rel=1e-12)


# ---------------------------------------------------------------- row blocks

def one_shot_curve(dist, val, mu, k):
    """The blocking curve as one (len(p) x K+1) log-sum-exp, as before row blocks."""
    lf = np.array([math.lgamma(i + 1.0) for i in range(k + 1)])
    terms = lf[k] - lf - lf[::-1] + log_beta_seq(dist, mu, k)
    j = np.arange(k + 1)

    def curve(p):
        gbar = np.asarray(val.tail(p), dtype=float)
        joins = gbar > 0.0
        x = np.multiply.outer(np.log(np.where(joins, gbar, 1.0)), -j)
        x += terms
        top = x.max(axis=-1, keepdims=True)
        x -= top
        log_sum = top[..., 0] + np.log(np.exp(x, out=x).sum(axis=-1))
        return gbar, np.where(joins, np.exp(-log_sum), 0.0)

    return curve


@pytest.mark.parametrize("k", [1, 5, 200, 1000, 5000])
@pytest.mark.parametrize("arrival", ["exp", "det", "two", "uni"])
def test_row_blocks_match_one_shot_curve(arrival, k):
    dist = arrival_law(arrival, rate_for(k))
    blocked, reference = _curve(dist, TABLE7, 2.0, k)[0], one_shot_curve(dist, TABLE7, 2.0, k)
    grid = np.geomspace(TABLE7.tail_quantile(1e-9) * 1e-9, TABLE7.tail_quantile(1e-9), 512)
    for p in (grid, 1.3, np.float64(4.5)):
        got, want = blocked(p), reference(p)
        assert np.shape(got[1]) == np.shape(want[1])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_only_prices_the_no_blocking_bound_leaves_run_the_log_sum_exp(monkeypatch):
    # 512 grid prices, 8 zoom passes of 17 and p_star, p_inf make 650; at
    # light load lam p Gbar(p) rules out all but a few grid prices
    seen = []

    def counting_curve(*args):
        curve, log_beta = _curve(*args)

        def counted(p):
            seen.append(np.size(p))
            return curve(p)

        return counted, log_beta

    monkeypatch.setattr(uniform_pricing, "_curve", counting_curve)
    optimize_uniform(Exponential(rate=140.0), VAL, 2.0, 1000)
    assert sum(seen) < 200


def random_ends(rng, n):
    """Pairs lo < hi of positive floats from 1e-300 to 1e300, and edge pairs."""
    lo = 10.0 ** rng.uniform(-300.0, 280.0, n)
    hi = lo * 10.0 ** rng.uniform(1e-12, 20.0, n)
    edges = [(1e-300, 1e-291), (1e-300, 2e-300), (1e291, 1e300), (1e300, 1.7e308),
             (1e-300, np.nextafter(1e-300, 1.0)), (1.0, np.nextafter(1.0, 2.0))]  # fmt: skip
    return [*zip(lo, hi), *edges]


def test_log_grid_is_geomspace_bit_for_bit():
    rng = np.random.default_rng(39)
    for lo, hi in random_ends(rng, 2000):
        assert np.array_equal(uniform_pricing._log_grid(lo, hi), np.geomspace(lo, hi, 512))
        assert np.array_equal(uniform_pricing._log_grid(hi, lo), np.geomspace(hi, lo, 512))


def test_zoom_prices_are_linspace_bit_for_bit():
    rng = np.random.default_rng(40)
    for lo, hi in random_ends(rng, 2000):
        assert np.array_equal(uniform_pricing._zoom_prices(lo, hi), np.linspace(lo, hi, 17))


def test_optimize_uniform_memory_is_bounded():
    dist = Exponential(rate=7200.0)
    optimize_uniform(dist, VAL, 2.0, 4000)  # warm any lazy imports and caches
    tracemalloc.start()
    try:
        optimize_uniform(dist, VAL, 2.0, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (512 x 4001) float64 matrix alone would take 15.6 MiB
    assert peak < 2 * 2**20
