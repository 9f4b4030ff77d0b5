"""Event-driven simulator versus every analytical prediction."""

import math
from dataclasses import fields, replace
from heapq import heappop, heappush

import numpy as np
import pytest

from farm_pricer import (
    Deterministic,
    Exponential,
    ExponentialValuation,
    InsensitivityReport,
    ParetoValuation,
    SimConfig,
    SimResult,
    SystemSpec,
    TabulatedTail,
    TwoPoint,
    UniformInterval,
    UniformValuation,
    departure_matrix,
    evaluate,
    fixed_point,
    insensitivity_check,
    simulate,
    solve_general,
)
from farm_pricer import simulator
from farm_pricer.model import price_array

VAL = ExponentialValuation(beta=1.0)


def poisson_spec(lam=25.0, mu=2.0, k=5, val=VAL):
    return SystemSpec(servers=k, mu=mu, arrival=Exponential(rate=lam), valuation=val)


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


# ------------------------------------------------------------ determinism

def test_same_seed_same_bits():
    spec = poisson_spec()
    cfg = SimConfig(spec=spec, prices=np.full(5, 1.2), horizon_arrivals=20_000, seed=7)
    a, b = simulate(cfg), simulate(cfg)
    assert a.revenue_rate_mean == b.revenue_rate_mean
    assert np.array_equal(a.seen_counts, b.seen_counts)
    assert np.array_equal(a.rep_revenue_rates, b.rep_revenue_rates)


def test_different_seed_different_sample():
    spec = poisson_spec()
    cfg = SimConfig(spec=spec, prices=np.full(5, 1.2), horizon_arrivals=20_000, seed=7)
    c = simulate(SimConfig(spec=spec, prices=np.full(5, 1.2), horizon_arrivals=20_000, seed=8))
    assert simulate(cfg).revenue_rate_mean != c.revenue_rate_mean


def test_seeds_a_multiple_of_2_64_apart_differ():
    # every 64-bit word of the seed keys the streams
    spec = poisson_spec()
    cfg = SimConfig(spec=spec, prices=np.full(5, 1.2), horizon_arrivals=2000, seed=7)
    wide = simulate(replace(cfg, seed=7 + 2**64)).rep_revenue_rates
    assert not np.any(simulate(cfg).rep_revenue_rates == wide)


def test_one_replication_has_no_interval():
    spec = poisson_spec(k=3)
    cfg = SimConfig(spec=spec, prices=np.full(3, 1.0), horizon_arrivals=10_000, replications=1)
    res = simulate(cfg)
    assert res.revenue_rate_ci_half == math.inf
    assert math.isfinite(res.revenue_rate_mean)


# ------------------------------------------------------- analytic agreement

def test_occupancy_and_acceptance_match_closed_form():
    spec = poisson_spec()
    prices = fixed_point(spec).prices
    cfg = SimConfig(spec=spec, prices=prices, horizon_arrivals=60_000, replications=10, seed=11)
    out = simulate(cfg)
    pi = evaluate(spec, prices).pi
    # consecutive arrival states are autocorrelated, so the iid binomial
    # sigma undershoots (here by 1.6-3.2x); hold each bin to 3 standard
    # errors across replications instead, and add a total-variation cap
    hist = out.rep_seen_counts / out.rep_seen_counts.sum(axis=1, keepdims=True)
    rep_se = hist.std(axis=0, ddof=1) / math.sqrt(cfg.replications)
    for k in range(6):
        assert abs(out.occupancy_hist[k] - pi[k]) < 3 * rep_se[k]
    assert 0.5 * np.abs(out.occupancy_hist - pi).sum() < 0.006
    for k in range(5):
        gbar = math.exp(-prices[k])
        n_k = int(out.seen_counts[k])
        assert abs(out.accepted_frac_by_state[k] - gbar) < three_sigma(gbar, n_k)


def test_revenue_ci_contains_optimal_rate():
    spec = poisson_spec()
    res = fixed_point(spec)
    cfg = SimConfig(spec=spec, prices=res.prices, horizon_arrivals=100_000, replications=10, seed=5)
    out = simulate(cfg)
    assert abs(out.revenue_rate_mean - res.theta_star) <= out.revenue_rate_ci_half


def test_general_arrivals_match_embedded_chain():
    spec = SystemSpec(servers=4, mu=2.0, arrival=Deterministic(rate=12.0), valuation=VAL)
    res = solve_general(spec)
    dep = departure_matrix(spec.arrival, spec.mu, 4)
    pi = evaluate(spec, res.prices, dep).pi
    cfg = SimConfig(spec=spec, prices=res.prices, horizon_arrivals=200_000, replications=5, seed=2)
    out = simulate(cfg)
    n = int(out.seen_counts.sum())
    for k in range(5):
        assert abs(out.occupancy_hist[k] - pi[k]) < 2 * three_sigma(pi[k], n)
    assert abs(out.revenue_rate_mean - res.theta_star) <= 3 * out.revenue_rate_ci_half


def test_single_server_blocking_is_erlang_b():
    # Gbar(0) = 1: every arrival is willing, blocking = rho/(1+rho);
    # and it must not move when the service law changes at fixed mean
    spec = poisson_spec(lam=3.0, mu=2.0, k=1)
    want = 1.5 / 2.5
    for law in (None, Deterministic(rate=2.0)):
        cfg = SimConfig(
            spec=spec,
            prices=np.zeros(1),
            horizon_arrivals=100_000,
            replications=5,
            seed=13,
            service_law=law,
        )
        out = simulate(cfg)
        n = int(out.seen_counts.sum())
        assert abs(out.occupancy_hist[-1] - want) < three_sigma(want, n)


def test_prohibitive_price_earns_nothing():
    spec = poisson_spec(k=3, val=UniformValuation(lo=0.0, hi=1.0))
    cfg = SimConfig(spec=spec, prices=np.full(3, 1.0 + 1e-12), horizon_arrivals=5_000, seed=1)
    out = simulate(cfg)
    assert out.revenue_rate_mean == 0.0
    assert out.occupancy_hist[-1] == 0.0
    assert out.occupancy_hist[0] == 1.0


def test_service_law_change_reuses_arrival_and_valuation_streams():
    # ample servers: admissions depend only on valuations, so revenue per
    # unit time is bit-identical across service laws on shared streams
    spec = poisson_spec(lam=5.0, mu=2.0, k=50)
    base = SimConfig(spec=spec, prices=np.full(50, 0.5), horizon_arrivals=20_000, seed=9)
    alt = SimConfig(
        spec=spec,
        prices=np.full(50, 0.5),
        horizon_arrivals=20_000,
        seed=9,
        service_law=Deterministic(rate=2.0),
    )
    assert simulate(base).revenue_rate_mean == simulate(alt).revenue_rate_mean


# ----------------------------------------------------------- insensitivity

def test_insensitivity_report():
    spec = poisson_spec()
    prices = fixed_point(spec).prices
    rep = insensitivity_check(spec, prices, Deterministic(rate=2.0), budget=200_000)
    assert isinstance(rep, InsensitivityReport)
    assert rep.max_hist_gap < 0.01
    assert rep.revenue_gap <= rep.base.revenue_rate_ci_half + rep.alt.revenue_rate_ci_half
    again = insensitivity_check(spec, prices, Deterministic(rate=2.0), budget=200_000)
    assert again.max_hist_gap == rep.max_hist_gap


def test_insensitivity_validation():
    spec = poisson_spec()
    with pytest.raises(ValueError):
        insensitivity_check(spec, np.full(5, 1.0), Deterministic(rate=3.0), budget=1000)
    det_spec = SystemSpec(servers=2, mu=2.0, arrival=Deterministic(rate=4.0), valuation=VAL)
    with pytest.raises(ValueError):
        insensitivity_check(det_spec, np.full(2, 1.0), Deterministic(rate=2.0), budget=1000)


# ---------------------------------------------------------------- plumbing

def test_config_defaults_and_validation():
    spec = poisson_spec(k=2)
    cfg = SimConfig(spec=spec, prices=np.zeros(2), horizon_arrivals=1000)
    assert cfg.resolved_warmup == 100
    assert cfg.resolved_service == Exponential(rate=2.0)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, prices=np.zeros(2), horizon_arrivals=100, warmup_arrivals=100)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, prices=np.zeros(2), horizon_arrivals=100, replications=0)
    # a valuation law is not a service-time law
    with pytest.raises(ValueError, match="^service_law must be one of"):
        SimConfig(spec, np.zeros(2), 100, service_law=ExponentialValuation(beta=0.5))


def test_result_counters_are_consistent():
    spec = poisson_spec(k=3)
    cfg = SimConfig(spec=spec, prices=np.full(3, 1.0), horizon_arrivals=10_000, seed=4)
    out = simulate(cfg)
    assert isinstance(out, SimResult)
    per_rep_counted = 10_000 - cfg.resolved_warmup
    assert int(out.seen_counts.sum()) == per_rep_counted * cfg.replications
    assert np.all(out.accepted_counts <= out.seen_counts[:3])
    assert out.occupancy_hist.sum() == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------- per-arrival loop as reference

def loop_replication(cfg: SimConfig, rep: int) -> tuple:
    """Reference: one heap step per arrival, the simulator's loop before candidates."""
    rng_a, rng_s, rng_v = (simulator._Stream(int(cfg.seed), rep, which) for which in range(3))

    chunk = 1 << 16
    k = cfg.spec.servers
    prices = price_array(cfg.spec, cfg.prices).tolist()
    horizon, warm = cfg.horizon_arrivals, cfg.resolved_warmup
    arrival, service, valuation = cfg.spec.arrival, cfg.resolved_service, cfg.spec.valuation

    heap: list[float] = []
    busy = 0
    t = 0.0
    warm_end_t = 0.0
    revenue = 0.0
    seen = [0] * (k + 1)
    accepted = [0] * k
    srv_buf = service.sample(rng_s, chunk).tolist()
    si = 0
    n = 0
    while n < horizon:
        take = min(chunk, horizon - n)
        gaps = arrival.sample(rng_a, take).tolist()
        vals = valuation.sample(rng_v, take).tolist()
        for j in range(take):
            t += gaps[j]
            while heap and heap[0] <= t:
                heappop(heap)
                busy -= 1
            counted = n >= warm
            if counted:
                seen[busy] += 1
            if busy < k and vals[j] >= prices[busy]:
                if counted:
                    revenue += prices[busy]
                    accepted[busy] += 1
                if si == len(srv_buf):
                    srv_buf = service.sample(rng_s, chunk).tolist()
                    si = 0
                heappush(heap, t + srv_buf[si])
                si += 1
                busy += 1
            n += 1
            if n == warm:
                warm_end_t = t
    return revenue / (t - warm_end_t), seen, accepted


def reference_result(cfg: SimConfig, monkeypatch) -> SimResult:
    with monkeypatch.context() as m:
        m.setattr(simulator, "_run_replication", loop_replication)
        return simulate(cfg)


def assert_bit_identical(got: SimResult, want: SimResult) -> None:
    for f in fields(SimResult):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


ARRIVALS = {
    "exp": Exponential(rate=6.0),
    "det": Deterministic(rate=6.0),
    "uniform": UniformInterval.from_rate(6.0),
    "two-point": TwoPoint(0.05, 0.5, 0.6),
}
SERVICES = {"exp": None, "det": Deterministic(rate=2.0), "uniform": UniformInterval.from_rate(2.0)}
CH = simulator._CHUNK
HORIZON = 2 * CH + 123  # both phases span more than one chunk
WARMUPS = (0, None, CH + 17)  # None: the default 10 %; CH + 17 crosses a chunk boundary


@pytest.mark.parametrize("service", SERVICES, ids=list(SERVICES))
@pytest.mark.parametrize("arrival", ARRIVALS, ids=list(ARRIVALS))
def test_candidate_loop_matches_per_arrival_reference(arrival, service, monkeypatch):
    combo = 0
    for k in (1, 3, 50):
        spec = SystemSpec(servers=k, mu=2.0, arrival=ARRIVALS[arrival], valuation=VAL)
        optimal = solve_general(spec).prices
        with_inf = optimal.copy()
        with_inf[k // 2] = math.inf  # at K=1 no arrival is ever a candidate
        for prices in (optimal, np.zeros(k), with_inf):
            cfg = SimConfig(
                spec=spec,
                prices=prices,
                horizon_arrivals=HORIZON,
                warmup_arrivals=WARMUPS[combo % 3],
                replications=1 + combo % 2,
                seed=combo,
                service_law=SERVICES[service],
            )
            assert_bit_identical(simulate(cfg), reference_result(cfg, monkeypatch))
            combo += 1
        combo += 1  # each K meets each warm-up under a different price vector


@pytest.mark.parametrize(
    "arrival, service, reps, idle",
    [
        (Exponential(rate=6.0), Deterministic(rate=1e300), 2, True),  # every service rounds away
        (Exponential(rate=6.0), UniformInterval(0.0, 1e-16), 2, False),  # some round away
        (Deterministic(rate=2.0), Deterministic(rate=2.0), 2, True),  # departures tie with arrivals
        (UniformInterval(0.0, 1e-300), None, 1, False),  # tiny gaps: one rep, the rate is ~1e300
        (UniformInterval(0.0, 1e-300), Deterministic(rate=1e300), 1, False),
        (TwoPoint(1e-300, 0.9, 1.0), None, 2, False),  # gaps that vanish next to t: equal times
    ],
    ids=["det-rounds-away", "uniform-rounds-away", "ties", "tiny-gaps", "tiny-gaps-tiny-service",
         "zero-gaps"],
)
def test_edge_timings_match_per_arrival_reference(arrival, service, reps, idle, monkeypatch):
    spec = SystemSpec(servers=3, mu=2.0, arrival=arrival, valuation=VAL)
    for prices in (np.zeros(3), np.array([0.2, 0.5, 1.0])):
        cfg = SimConfig(
            spec=spec,
            prices=prices,
            horizon_arrivals=CH + 500,
            replications=reps,
            seed=17,
            service_law=service,
        )
        got = simulate(cfg)
        assert_bit_identical(got, reference_result(cfg, monkeypatch))
        if idle and not prices.any():
            # every customer leaves by the next arrival, so each finds all servers free
            assert got.occupancy_hist[0] == 1.0


# keyed by constructor: UniformValuation builds a TabulatedTail
LAWS = {
    "Exponential": Exponential(rate=3.0),
    "Deterministic": Deterministic(rate=3.0),
    "UniformInterval": UniformInterval(0.1, 0.7),
    "TwoPoint": TwoPoint(0.1, 0.3, 0.9),
    "ExponentialValuation": ExponentialValuation(beta=1.5),
    "ParetoValuation": ParetoValuation(theta=0.5),
    "UniformValuation": UniformValuation(lo=0.0, hi=2.0),
    "TabulatedTail": TabulatedTail(xs=(0.0, 1.0, 2.0), gs=(1.0, 0.5, 0.3)),
}


@pytest.mark.parametrize("law", LAWS.values(), ids=list(LAWS))
def test_sample_does_not_depend_on_how_draws_are_split(law):
    # the simulator draws arrivals in chunks and service times from a moving
    # start; that is only bit-identical if a split changes no draw
    pieces = (1, 2, 1023, 5000, 3)
    for stream in (lambda: simulator._Stream(99, 0, 0),
                   lambda: np.random.Generator(np.random.Philox(99))):  # fmt: skip
        whole = law.sample(stream(), sum(pieces))
        rng = stream()
        split = np.concatenate([law.sample(rng, n) for n in pieces])
        assert np.array_equal(whole, split)


@pytest.mark.parametrize("law", LAWS.values(), ids=list(LAWS))
def test_seek_starts_a_run_at_any_draw(law):
    whole = law.sample(simulator._Stream(99, 0, 1), 6000)
    rng = simulator._Stream(99, 0, 1)
    law.sample(rng, 40)  # then seek back over draws already taken
    assert np.array_equal(law.sample(rng._seek(17), 5000), whole[17:5017])
    assert np.array_equal(law.sample(rng, 983), whole[5017:])
@pytest.mark.parametrize(
    "field, value",
    [("warmup_arrivals", 10_000.5), ("horizon_arrivals", 2000.0), ("replications", True),
     ("seed", True), ("seed", -1)],
)  # fmt: skip
def test_config_rejects_non_integral_counts(field, value):
    base = SimConfig(spec=poisson_spec(k=2), prices=np.zeros(2), horizon_arrivals=20_000)
    with pytest.raises(ValueError, match=field):
        replace(base, **{field: value})
    replace(base, **{field: np.int64(3)})  # numpy integers are accepted
