"""Policy iteration: Poisson equivalence and evaluation, regressions, invariants, certificate."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact import policy_iteration, renewal_policy_iteration
from farm_pricer import (
    Deterministic,
    Exponential,
    ExponentialValuation,
    NoConvergence,
    SolveResult,
    SystemSpec,
    TabulatedTail,
    TwoPoint,
    UniformInterval,
    UniformValuation,
    departure_matrix,
    eval_m,
    fixed_point,
    mdp_general,
    optimize_uniform,
    revenue_rate,
    revenue_uniform,
    solve_general,
)

VAL = ExponentialValuation(beta=1.0)
TABLE7 = TabulatedTail(
    xs=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0), gs=(1.0, 0.9, 0.7, 0.45, 0.3, 0.1, 0.0)
)


def spec_with(arrival, k=5, mu=2.0, val=VAL):
    return SystemSpec(servers=k, mu=mu, arrival=arrival, valuation=val)


GAP_KINDS = ["exp", "det", "unif", "two_point"]


def gap_law(kind, lam, p1, c):
    """A gap law of rate lam; two_point: atom c / lam with chance p1, the other fixes the mean."""
    if kind == "exp":
        return Exponential(rate=lam)
    if kind == "det":
        return Deterministic(rate=lam)
    if kind == "unif":
        return UniformInterval.from_rate(lam)
    return TwoPoint(x1=c / lam, p1=p1, x2=(1.0 - p1 * c) / ((1.0 - p1) * lam))


def chain_differences(spec, res):
    """The embedded chain's h(i) - h(i+1) at an optimum, from its Delta:
    Delta(i) + m(Delta(i)) - m(Delta(i+1)), with m = 0 at the full state."""
    m = np.array([eval_m(spec.valuation, d).m_val for d in res.deltas] + [0.0])
    return res.deltas + m[:-1] - m[1:]


def assert_certified(spec, res, rel=1e-10):
    """Bellman residuals, revenue_rate(prices) = theta* to rel and the uniform-price bounds."""
    theta = res.theta_star
    assert np.max(np.abs(res.residuals)) <= 1e-9 * max(1.0, theta)
    S = departure_matrix(spec.arrival, spec.mu, spec.servers)
    assert revenue_rate(spec, res.prices, S) == pytest.approx(theta, rel=rel, abs=0.0)
    uni = optimize_uniform(spec.arrival, spec.valuation, spec.mu, spec.servers)
    # where blocking is negligible, theta*, the best uniform revenue and
    # gap_upper agree to the last bits, so both sides allow for rounding
    assert uni.revenue_K * (1 - 1e-12) <= theta <= uni.gap_upper * (1 + 1e-12)


# ------------------------------------------------------- Poisson equivalence

def test_matches_fixed_point_for_poisson():
    spec = spec_with(Exponential(rate=25.0))
    ref = fixed_point(spec)
    res = solve_general(spec)
    assert res.theta_star == pytest.approx(ref.theta_star, rel=1e-6)
    np.testing.assert_allclose(res.prices, ref.prices, atol=1e-5)
    # the sampled chain's h-differences differ from the uniformized chain's,
    # but both solvers report the paper's Delta(i), the argument of u*
    np.testing.assert_allclose(res.deltas, ref.deltas, atol=1e-5)


def test_matches_fixed_point_single_server():
    spec = spec_with(Exponential(rate=3.0), k=1, mu=2.0)
    ref = fixed_point(spec)
    res = solve_general(spec)
    assert res.theta_star == pytest.approx(ref.theta_star, rel=1e-6)
    # root condition is theta = lambda P(server freed within one gap) g_0,
    # and that probability is mu/(lambda+mu) for Poisson arrivals
    g_0 = chain_differences(spec, res)[0]
    assert g_0 == pytest.approx(res.theta_star / (3.0 * 2.0 / 5.0), rel=1e-6)


@pytest.mark.parametrize("lam", [1e-12, 1e-6])
def test_matches_fixed_point_in_light_traffic(lam):
    # the survivor rows hold to rounding however small lambda / mu is
    spec = spec_with(Exponential(rate=lam), k=3, mu=1.0)
    ref = fixed_point(spec)
    assert solve_general(spec).theta_star == pytest.approx(ref.theta_star, rel=1e-11, abs=0.0)


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


@pytest.mark.parametrize("kind", GAP_KINDS)
def test_survivor_rows_telescope_into_the_papers_form(kind):
    # (S h)_i - h(i) = sum_{j<i} a_{i,j} (h(j) - h(j+1)), with a_{i,j} the
    # chance that at most j of i busy servers survive a gap: the paper's form
    # of the Bellman equations, for any h
    rng = np.random.default_rng(2026)
    for k in (1, 5, 12, 40):
        for load in (0.1, 1.0, 5.0):
            S = departure_matrix(gap_law(kind, load * k * 2.0, 0.3, 0.4), 2.0, k)
            h = rng.standard_normal(k + 1)
            a_below = np.tril(np.cumsum(S, axis=1), -1)[:, :k]
            np.testing.assert_allclose(
                S @ h - h, a_below @ (h[:-1] - h[1:]), rtol=0.0, atol=1e-14 * np.max(np.abs(h))
            )


def test_every_solve_reports_one_evaluation_of_its_prices():
    # the returned record is the one the law's step builds on the returned
    # prices, every field bit for bit, and theta* is what those prices earn
    for solve, arrival in ((fixed_point, Exponential(rate=25.0)),
                           (solve_general, Exponential(rate=25.0)),
                           (solve_general, Deterministic(rate=25.0)),
                           (solve_general, UniformInterval.from_rate(25.0)),
                           (solve_general, gap_law("two_point", 25.0, 0.5, 0.2))):  # fmt: skip
        for val in (VAL, UniformValuation(lo=0.0, hi=2.0), TABLE7):
            spec = spec_with(arrival, val=val)
            res = solve(spec)
            if spec.is_poisson:
                record, _ = mdp_general._birth_death_step(spec, res.prices, res.iterations)
                assert res.theta_star == revenue_rate(spec, res.prices), (solve, val)
            else:
                S = departure_matrix(arrival, spec.mu, spec.servers)
                record, _ = mdp_general._embedded_step(spec, S, res.prices, res.iterations)
                rate = revenue_rate(spec, res.prices, S)
                assert res.theta_star == pytest.approx(rate, rel=1e-12, abs=0.0), (arrival, val)
            for field in fields(SolveResult):
                got, built = getattr(res, field.name), getattr(record, field.name)
                where = (solve, arrival, val, field.name)
                assert type(got) is type(built), where
                assert np.asarray(got).tobytes() == np.asarray(built).tobytes(), where
            assert np.min(res.residuals) >= -1e-12 * max(1.0, res.theta_star), (solve, arrival, val)


@pytest.mark.parametrize("kind", GAP_KINDS)
def test_iterations_count_the_policy_iteration_passes(kind, monkeypatch):
    # a cap of exactly that many passes gives the same solve; fixed_point's
    # passes start from its bisection's prices
    solvers = (solve_general, fixed_point) if kind == "exp" else (solve_general,)
    for load in (0.1, 1.0, 5.0):
        spec = spec_with(gap_law(kind, load * 10.0, 0.5, 0.2))
        for solve in solvers:
            res = solve(spec)
            assert 1 <= res.iterations <= mdp_general._MAX_ITERATIONS
            monkeypatch.setattr(mdp_general, "_MAX_ITERATIONS", res.iterations)
            again = solve(spec)
            monkeypatch.undo()
            assert again.theta_star == res.theta_star and again.iterations == res.iterations
            assert again.prices.tolist() == res.prices.tolist()


# ------------------------------------------ Poisson birth-death evaluation

@pytest.mark.parametrize(
    "k, lam", [(70, 126.0), (300, 300.0), (70, 448.0), (160, 512.0), (67, 2e6)]
)
def test_poisson_rare_states_match_exact_policy_iteration(k, lam):
    # prices that earn theta* can miss in these cells' rare states; the O(K)
    # evaluation runs toward the mode of pi from both ends and settles on them
    theta, prices = policy_iteration(k, lam, 2.0)
    spec = spec_with(Exponential(rate=lam), k=k)
    res = solve_general(spec)
    np.testing.assert_allclose(res.prices, prices, rtol=0.0, atol=1e-8)
    assert res.theta_star == pytest.approx(theta, rel=1e-12, abs=0.0)
    # a Poisson solve reports the evaluation of the prices it returns
    assert res.theta_star == revenue_rate(spec, res.prices)
    assert np.max(np.abs(res.residuals)) <= 1e-9 * max(1.0, res.theta_star)


@pytest.mark.parametrize("val", [VAL, UniformValuation(lo=0.0, hi=2.0)], ids=["exp", "unif"])
@pytest.mark.parametrize("k, lam", [(1000, 1800.0), (1000, 5000.0), (1000, 6400.0), (400, 2560.0)])
def test_poisson_cells_where_the_g_chain_overflows_certify(k, lam, val):
    # fixed_point raises "g-chain overflows" on each of these cells
    spec = spec_with(Exponential(rate=lam), k=k, val=val)
    res = solve_general(spec)
    assert_certified(spec, res, rel=1e-12)
    assert res.theta_star == revenue_rate(spec, res.prices)
    # where Delta(i) is below the rounding of p_i, prices may step down by rounding
    assert np.all(np.diff(res.prices) >= -1e-12)
    if val is VAL:
        exact_prices = policy_iteration(k, lam, 2.0)[1]
        np.testing.assert_allclose(res.prices, exact_prices, rtol=0.0, atol=1e-8)


def test_birth_death_deltas_match_the_dense_embedded_chain():
    # at prices that are not optimal, the O(K) recursion and the dense solve
    # of the chain embedded at arrivals, Delta = (S_i - S_{i+1}) h, agree;
    # every price admits someone, or Delta in unreachable states explodes
    rng = np.random.default_rng(2026)
    cases = 0
    for val, top in ((VAL, 5.0), (UniformValuation(lo=0.0, hi=2.0), 1.9), (TABLE7, 3.9)):
        for k in (1, 3, 10, 40):
            for load in (0.1, 1.0, 5.0):
                spec = spec_with(Exponential(rate=load * k * 2.0), k=k, val=val)
                surv = departure_matrix(spec.arrival, spec.mu, k)
                for _ in range(2):
                    prices = rng.uniform(0.0, top, k)
                    birth_death = mdp_general._birth_death_step(spec, prices, 0)[0]
                    dense = mdp_general._embedded_step(spec, surv, prices, 0)[0]
                    atol = 1e-12 * max(1.0, birth_death.theta_star)
                    np.testing.assert_allclose(birth_death.deltas, dense.deltas, rtol=0.0, atol=atol)
                    cases += 1
    assert cases == 72


def test_poisson_solve_allocates_no_state_matrix():
    # one (K+1)^2 float matrix would take 800 MB here
    spec = spec_with(Exponential(rate=18000.0), k=10_000)
    tracemalloc.start()
    try:
        res = solve_general(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert np.max(np.abs(res.residuals)) <= 1e-9 * res.theta_star


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


@pytest.mark.parametrize("kind", ["det", "two_point", "unif"])
@pytest.mark.parametrize("k, load", [(5, 0.4), (5, 2.0), (12, 0.4), (12, 2.0)])
def test_solve_matches_exact_policy_iteration(k, load, kind):
    # 50-digit Decimal policy iteration on the chain embedded at arrivals,
    # with a survivor matrix built from its definition rather than the library's
    mu = 2.0
    lam = load * k * mu
    gap = gap_law(kind, lam, 0.5, 0.2)
    if kind == "unif":
        theta, prices = renewal_policy_iteration(k, lam, mu, interval=(gap.lo, gap.hi))
    elif kind == "det":
        theta, prices = renewal_policy_iteration(k, lam, mu, atoms=[(gap.mean, 1.0)])
    else:
        atoms = [(gap.x1, gap.p1), (gap.x2, 1.0 - gap.p1)]
        theta, prices = renewal_policy_iteration(k, lam, mu, atoms=atoms)
    res = solve_general(spec_with(gap, k=k))
    assert res.theta_star == pytest.approx(theta, rel=1e-12)
    np.testing.assert_allclose(res.prices, prices, rtol=1e-10, atol=0.0)


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
    assert np.all(np.diff(chain_differences(spec, res)) > 0)
    assert np.all(np.diff(res.deltas) > 0)
    assert np.all(np.diff(res.prices) > 0)
    assert np.max(np.abs(res.residuals)) <= 1e-9 * max(1.0, res.theta_star)
    assert 0 < res.theta_star < spec.arrival_rate * eval_m(spec.valuation, 0.0).m_val


def test_more_servers_earn_more():
    thetas = [
        solve_general(spec_with(Deterministic(rate=25.0), k=k)).theta_star for k in (3, 4, 5, 6)
    ]
    assert np.all(np.diff(thetas) > 0)


@pytest.mark.parametrize("kind", GAP_KINDS)
def test_more_servers_never_earn_less_on_every_gap_law(kind):
    # theta* along K = 1..10 at fixed gaps, mu and valuations, four draws per
    # gap law; one more server may lose only rounding
    rng = np.random.default_rng(2026)
    for _ in range(4):
        lam = float(np.exp(rng.uniform(math.log(0.5), math.log(60.0))))
        arrival = gap_law(kind, lam, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.05, 0.95)))
        val = (VAL, UniformValuation(lo=0.0, hi=2.0), TABLE7)[rng.integers(3)]
        thetas = [solve_general(spec_with(arrival, k=k, val=val)).theta_star for k in range(1, 11)]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(thetas, thetas[1:])), (arrival, val, thetas)


# ------------------------------------------------------------ light traffic

def test_light_traffic_discards_clamped_roots():
    # rho = lam / (K mu) ~ 0.4: a theta scan over the paper's upward
    # recursion finds a spurious crossing near 1.854 here, where the
    # recursion has to clamp its arguments; the solve must land on theta*
    spec = SystemSpec(
        servers=6,
        mu=1.5876,
        arrival=Deterministic(rate=3.8935),
        valuation=ExponentialValuation(beta=0.7586),
    )
    res = solve_general(spec)
    assert res.theta_star == pytest.approx(1.8882, abs=2e-3)
    assert np.all(np.diff(chain_differences(spec, res)) > 0)
    assert np.max(np.abs(res.residuals)) <= 1e-9 * max(1.0, res.theta_star)


# ---------------------------------------------------------- certificate

@pytest.mark.parametrize(
    "val, theta", [(UniformValuation(lo=0.0, hi=2.0), 2.0), (TABLE7, 2.88)], ids=["unif", "table7"]
)
def test_many_servers_in_light_traffic_reach_lambda_m0(val, theta):
    # Deterministic(4), K=12: almost no arrival is blocked, so theta* is the
    # no-blocking bound lambda m(0) to rounding
    spec = spec_with(Deterministic(rate=4.0), k=12, val=val)
    res = solve_general(spec)
    assert res.theta_star == pytest.approx(theta, rel=1e-12)
    assert_certified(spec, res)


def test_rare_arrivals_earn_at_least_the_best_uniform_price():
    spec = spec_with(Deterministic(rate=0.5))
    assert_certified(spec, solve_general(spec))


@pytest.mark.parametrize(
    "k, lam",
    [
        (191, 20065.159796914886),
        (159, 27207.08107876334),
        (51, 81.12 * 51 * 2.0),
        (39, 72.0 * 39 * 2.0),
    ],
    ids=["k191", "k159", "k51-load81", "k39-load72"],
)
def test_heavy_traffic_uniform_arrivals_certify(k, lam):
    # heavy traffic: the dense policy-evaluation solve amplifies a departure
    # row-sum leak of 1e-13 into Bellman defects above the gate (first two)
    # or a 5e-11 to 1.5e-10 gap between revenue_rate(prices) and theta*
    spec = spec_with(UniformInterval.from_rate(lam), k=k, val=UniformValuation(lo=0.0, hi=2.0))
    assert_certified(spec, solve_general(spec), rel=1e-12)


def test_singular_policy_evaluation_raises():
    # gaps of 1e-18: a busy server finishes within one gap with chance 1e-18,
    # which vanishes beside the order-one admission terms, so the evaluation
    # matrix of h + g = r + P h is singular in floating point
    spec = spec_with(Deterministic(rate=1e18), k=40, mu=1.0)
    with pytest.raises(NoConvergence, match="policy evaluation failed on 41 states"):
        solve_general(spec)


def test_certificate_gate_raises_when_iterations_run_out(monkeypatch):
    # the myopic start is far from optimal here: one evaluation leaves
    # Bellman defects well above the gate
    monkeypatch.setattr(mdp_general, "_MAX_ITERATIONS", 1)
    with pytest.raises(NoConvergence):
        solve_general(spec_with(Deterministic(rate=25.0)))


@st.composite
def renewal_specs(draw):
    k = draw(st.integers(1, 40))
    lam = draw(st.floats(0.01, 5.0)) * k * 2.0  # load times K mu, with mu = 2
    kind = draw(st.sampled_from(GAP_KINDS))
    p1, c = 0.5, 0.5  # read by two_point only
    if kind == "two_point":
        p1, c = draw(st.floats(0.1, 0.9)), draw(st.floats(0.05, 0.95))
    arrival = gap_law(kind, lam, p1, c)
    val = draw(st.sampled_from([VAL, UniformValuation(lo=0.0, hi=2.0), TABLE7]))
    return spec_with(arrival, k=k, val=val)


@settings(max_examples=100, deadline=5000, derandomize=True, database=None)
@given(renewal_specs())
# Det gaps at load 0.4: the last improvement still moves the prices there,
# so the defects of the policy it improved reach 7e-10 theta*
@example(spec_with(Deterministic(rate=32.0), k=40))
@example(spec_with(Deterministic(rate=32.0), k=40, val=UniformValuation(lo=0.0, hi=2.0)))
@example(spec_with(Deterministic(rate=32.0), k=40, val=TABLE7))
@example(spec_with(Deterministic(rate=120.0), k=150))
@example(spec_with(Deterministic(rate=120.0), k=150, val=UniformValuation(lo=0.0, hi=2.0)))
@example(spec_with(Deterministic(rate=120.0), k=150, val=TABLE7))
# a bisected theta* left Bellman defects of 0.35 theta* in rare states here
@example(spec_with(Exponential(rate=180.0), k=30))
def test_certificate_on_random_renewal_specs(spec):
    # every gap law, exponential included, and fixed_point on Poisson specs;
    # the residuals are those of the returned prices, so near rounding
    res = solve_general(spec)
    assert_certified(spec, res)
    assert np.max(np.abs(res.residuals)) <= 1e-12 * max(1.0, res.theta_star)
    assert np.all(np.diff(res.prices) >= -1e-10)
    if spec.is_poisson:
        ref = fixed_point(spec)
        assert np.max(np.abs(ref.residuals)) <= 1e-12 * max(1.0, ref.theta_star)
        assert ref.theta_star == pytest.approx(res.theta_star, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(ref.prices, res.prices, rtol=0.0, atol=1e-8)
    # one more server never earns less
    more = solve_general(replace(spec, servers=spec.servers + 1))
    assert more.theta_star >= res.theta_star * (1 - 1e-12)
