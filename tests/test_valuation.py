"""Valuation laws and the auxiliary maps m and u*."""

import math
from functools import partial

import numpy as np
import pytest

from farm_pricer import (
    AuxEval,
    Exponential,
    ExponentialValuation,
    NoFiniteMaximizer,
    ParetoValuation,
    SystemSpec,
    TabulatedTail,
    UniformValuation,
    eval_m,
    fixed_point,
    solve_general,
)
from farm_pricer.errors import ConfigError
from farm_pricer.model import law_from_config

from exact import piecewise_linear_m

valuation_from_config = partial(law_from_config, "valuation")


def brute_force_m(dist, B, lo=None, hi=None, n=200_001):
    """Dense-grid oracle for max_u (u - B) Gbar(u), independent of eval_m."""
    if lo is None:
        lo = max(B, 0.0)
    if hi is None:
        hi = max(B, 0.0) + dist.tail_quantile(1e-9)
    u = np.linspace(lo, hi, n)
    f = (u - B) * np.asarray(dist.tail(u))
    i = int(np.argmax(f))
    return float(u[i]), float(f[i])


def tabulated_from(fn, hi, n=400):
    xs = np.linspace(0.0, hi, n)
    gs = np.array([fn(x) for x in xs])
    return TabulatedTail(xs=tuple(xs), gs=tuple(gs / gs[0]))


# the best price sits on the final atom for B in [0.5, 2)
ATOM = TabulatedTail(xs=(0.0, 1.0, 2.0), gs=(1.0, 0.5, 0.3))
# u* jumps onto the plateau's right end and stays there for B in (-2.2, 0.5)
PLATEAU = TabulatedTail(xs=(0.0, 1.0, 1.5, 2.5), gs=(1.0, 0.6, 0.6, 0.0))


# ---------------------------------------------------------------- tails

def test_tail_values():
    assert ExponentialValuation(beta=1.0).tail(0.0) == 1.0
    assert ExponentialValuation(beta=1.0).tail(1.0) == pytest.approx(math.exp(-1))
    assert ParetoValuation(theta=2.0).tail(4.0) == pytest.approx(0.5)
    assert ParetoValuation(theta=2.0).tail(1.0) == 1.0  # min(1, theta/u)
    assert UniformValuation(0.0, 1.0).tail(0.25) == pytest.approx(0.75)


def test_tail_clamps_negative_argument():
    for dist in (ExponentialValuation(1.0), ParetoValuation(2.0), UniformValuation(0, 1)):
        assert dist.tail(-3.0) == 1.0


def test_tail_vectorized():
    d = ExponentialValuation(beta=2.0)
    u = np.array([-1.0, 0.0, 0.5, 3.0])
    np.testing.assert_allclose(d.tail(u), [1.0, 1.0, math.exp(-1), math.exp(-6)])


# ---------------------------------------------------------------- eval_m

def test_eval_m_exponential_closed_form():
    ev = eval_m(ExponentialValuation(beta=1.0), 0.0)
    assert ev.u_star == pytest.approx(1.0)
    assert ev.m_val == pytest.approx(math.exp(-1))

    ev = eval_m(ExponentialValuation(beta=2.0), 0.5)
    assert ev.u_star == pytest.approx(1.0)
    assert ev.m_val == pytest.approx(0.5 * math.exp(-2))


def test_eval_m_exponential_clamps_at_zero():
    # for B <= -1/beta the unclamped maximizer B + 1/beta is negative,
    # but prices cannot be negative: u* pins at 0 and m(B) = -B
    ev = eval_m(ExponentialValuation(beta=1.0), -5.0)
    assert ev.u_star == 0.0
    assert ev.m_val == pytest.approx(5.0)


def test_eval_m_needs_finite_b():
    for B in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="B must be finite"):
            eval_m(ExponentialValuation(beta=1.0), B)


def test_eval_m_uniform():
    ev = eval_m(UniformValuation(0.0, 1.0), 0.0)
    assert ev.u_star == pytest.approx(0.5, abs=1e-6)
    assert ev.m_val == pytest.approx(0.25, abs=1e-9)


def test_eval_m_matches_brute_force():
    cases = [
        (ExponentialValuation(beta=0.7), [-2.0, -0.3, 0.0, 0.8, 3.0]),
        (UniformValuation(0.0, 2.0), [-1.0, 0.0, 0.4, 1.5]),
        (UniformValuation(0.9, 1.0), [-0.2, 0.0, 0.5]),
        (tabulated_from(lambda x: math.exp(-x), 25.0), [0.0, 0.5, 2.0]),
        (ATOM, [-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5]),
        (PLATEAU, [-2.5, -2.2, -1.0, 0.0, 0.5, 1.0, 3.0]),
        (UniformValuation(1.0, 3.0), [-1.0, -0.5, 0.0, 1.0, 2.5, 3.5]),
    ]
    for dist, bs in cases:
        for B in bs:
            ev = eval_m(dist, B)
            u_ref, m_ref = brute_force_m(dist, B)
            assert ev.m_val == pytest.approx(m_ref, abs=1e-6), (dist, B)
            # value at the reported maximizer must reproduce m_val
            assert (ev.u_star - B) * float(dist.tail(ev.u_star)) == pytest.approx(
                ev.m_val, abs=1e-12
            )
            assert abs(ev.u_star - u_ref) < 1e-3 or ev.m_val >= m_ref - 1e-9


def test_eval_m_pareto():
    ev = eval_m(ParetoValuation(theta=2.0), -1.0)
    assert ev.m_val == pytest.approx(3.0)  # theta - B
    with pytest.raises(NoFiniteMaximizer):
        eval_m(ParetoValuation(theta=2.0), 0.5)


@pytest.mark.parametrize(
    "dist",
    [ExponentialValuation(1.0), ParetoValuation(2.0), UniformValuation(1.0, 3.0), ATOM],
    ids=["exp", "pareto", "uniform", "tabulated"],
)
def test_eval_m_result_is_an_immutable_b_u_m_record(dist):
    ev = eval_m(dist, -0.25)
    assert isinstance(ev, AuxEval)
    assert AuxEval._fields == ("u_star", "m_val")
    assert (ev.u_star, ev.m_val) == tuple(ev)
    for name in AuxEval._fields:
        with pytest.raises(AttributeError):
            setattr(ev, name, 0.0)


# ---------------------------------------------------------------- m properties

@pytest.mark.parametrize(
    "dist",
    [
        ExponentialValuation(beta=1.0),
        ExponentialValuation(beta=3.0),
        UniformValuation(0.0, 1.5),
        tabulated_from(lambda x: math.exp(-(x**2)), 5.0),
        ATOM,
        PLATEAU,
        UniformValuation(1.0, 3.0),
    ],
    ids=["exp1", "exp3", "unif", "gauss-tail", "atom", "plateau", "unif-1-3"],
)
def test_m_monotone_lipschitz_convex(dist):
    rng = np.random.default_rng(42)
    bs = np.sort(rng.uniform(-2.0, 2.0, 30))
    ms = np.array([eval_m(dist, b).m_val for b in bs])
    us = np.array([eval_m(dist, b).u_star for b in bs])
    assert np.all(ms >= -1e-12)
    assert np.all(np.diff(ms) <= 1e-9), "m must be nonincreasing"
    assert np.all(np.diff(us) >= -1e-6), "u* must be nondecreasing"
    # Lipschitz-1 on consecutive pairs
    assert np.all(np.abs(np.diff(ms)) <= np.diff(bs) + 1e-8)
    # midpoint convexity
    for i in range(0, len(bs) - 2, 3):
        mid = eval_m(dist, 0.5 * (bs[i] + bs[i + 2])).m_val
        assert mid <= 0.5 * (ms[i] + ms[i + 2]) + 1e-8


# ---------------------------------------------------------------- tabulated tails

def test_tabulated_requires_monotone_table():
    with pytest.raises(ValueError):
        TabulatedTail(xs=(0.0, 1.0, 0.5), gs=(1.0, 0.5, 0.2))
    with pytest.raises(ValueError):
        TabulatedTail(xs=(0.0, 1.0, 2.0), gs=(1.0, 0.6, 0.7))
    with pytest.raises(ValueError):
        TabulatedTail(xs=(0.0, 1.0), gs=(0.9, 0.5))  # must start at Gbar(0)=1
    with pytest.raises(ValueError, match="need >= 2 knots"):
        TabulatedTail(xs=(0.0, 1.0), gs=(1.0,))
    with pytest.raises(ValueError, match="need >= 2 knots"):
        TabulatedTail(xs=(0.0,), gs=(1.0,))
    with pytest.raises(ValueError, match="nonincreasing and nonnegative"):
        TabulatedTail(xs=(0.0, 1.0), gs=(1.0, -0.1))
    for xs, gs in (((0.0, math.nan, 2.0), (1.0, 0.5, 0.0)),
                   ((0.0, 1.0, math.inf), (1.0, 0.5, 0.0)),
                   ((0.0, 1.0, 2.0), (1.0, math.nan, 0.0))):  # fmt: skip
        with pytest.raises(ValueError, match="knots must be finite"):
            TabulatedTail(xs=xs, gs=gs)
    # a string, bytes or a mapping would be read as characters, ints or keys
    for xs, gs in (("012", (1.0, 0.5, 0.0)), ((0.0, 1.0, 2.0), b"\x01\x00\x00"),
                   ({0: 1, 1: 2, 2: 3}, (1.0, 0.5, 0.0))):  # fmt: skip
        with pytest.raises(ValueError, match="knots must be sequences of numbers"):
            TabulatedTail(xs=xs, gs=gs)
    with pytest.raises(ValueError, match="need 0 <= lo < hi < inf"):
        UniformValuation(1.0, 1.0)
    with pytest.raises(ValueError, match="need 0 <= lo < hi < inf"):
        UniformValuation(0.0, math.inf)


def test_tabulated_extrapolates_zero():
    t = TabulatedTail(xs=(0.0, 1.0, 2.0), gs=(1.0, 0.5, 0.0))
    assert t.tail(5.0) == 0.0
    assert t.tail(0.5) == pytest.approx(0.75)


def test_tabulated_sampling_matches_tail():
    t = tabulated_from(lambda x: math.exp(-x), 20.0)
    rng = np.random.default_rng(3)
    draws = t.sample(rng, 200_000)
    # empirical tail at a few points vs the table
    for u in (0.5, 1.0, 2.0):
        emp = float(np.mean(draws >= u))
        assert emp == pytest.approx(float(t.tail(u)), abs=5e-3)


@pytest.mark.parametrize("lo", [0.0, 0.5])
def test_uniform_valuation_is_a_tabulated_tail(lo):
    hi = 3.0
    v = UniformValuation(lo, hi)
    u = np.linspace(-1.0, 4.0, 8001)
    exact = np.clip((hi - u) / (hi - lo), 0.0, 1.0)
    np.testing.assert_allclose(v.tail(u), exact, rtol=0.0, atol=2.3e-16)
    for B in np.linspace(-5.0, hi, 2001, endpoint=False):
        assert eval_m(v, B).u_star == np.clip((hi + B) / 2, lo, hi), B
    draws = v.sample(np.random.default_rng(5), 100_000)
    assert lo <= draws.min() and draws.max() <= hi
    assert abs(draws.mean() - (lo + hi) / 2) <= 4 * (hi - lo) / math.sqrt(12 * draws.size)
    spec = SystemSpec(3, 2.0, Exponential(rate=5.0), v)
    assert solve_general(spec).theta_star == pytest.approx(fixed_point(spec).theta_star, rel=1e-9)


# the benchmark's 7-knot valuation table (perfbench/workloads.py)
BENCH_TABLE = TabulatedTail(
    xs=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0), gs=(1.0, 0.8, 0.55, 0.35, 0.2, 0.06, 0.0)
)


@pytest.mark.parametrize(
    "dist",
    [ATOM, PLATEAU, BENCH_TABLE, UniformValuation(0.5, 3.0)],
    ids=["atom", "plateau", "bench-table", "unif-0.5-3"],
)
def test_tabulated_eval_m_matches_exact_fractions(dist):
    # B < 0, 0, every knot, two points inside each segment, and past the
    # last knot, where m = 0 and every u >= B maximizes
    xs = dist.xs
    inside = [a + (b - a) * t for a, b in zip(xs, xs[1:]) for t in (1 / 3, 2 / 3)]
    for B in [-3.0, -2.2, -1.0, -0.3, *xs, *inside, xs[-1] + 1.0]:
        ev = eval_m(dist, B)
        m, maximizers = piecewise_linear_m(xs, dist.gs, B)
        assert ev.m_val == pytest.approx(float(m), rel=1e-15, abs=0.0), B
        if m > 0 and len(maximizers) == 1:
            assert ev.u_star == pytest.approx(float(maximizers[0]), rel=1e-15, abs=0.0), B


# ---------------------------------------------------------------- config

def test_valuation_from_config():
    v = valuation_from_config({"kind": "exponential", "beta": 2.0})
    assert isinstance(v, ExponentialValuation) and v.beta == 2.0
    v = valuation_from_config({"kind": "uniform", "lo": 0.0, "hi": 2.0})
    assert v == TabulatedTail((0.0, 2.0), (1.0, 0.0))
    with pytest.raises(ConfigError):
        valuation_from_config({"kind": "gamma", "shape": 2})
    with pytest.raises(ConfigError):
        valuation_from_config({"kind": "exponential"})
    with pytest.raises(ConfigError):
        valuation_from_config("exp:1")
