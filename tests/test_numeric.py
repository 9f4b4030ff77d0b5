"""The stdlib Brent root finder and Student-t quantile against scipy.

scipy is only a test dependency: it serves here as the independent oracle.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.special import stdtrit

from farm_pricer._numeric import brentq, t_quantile
from farm_pricer.errors import NoConvergence, PricingError

FAMILIES = {
    "tanh": lambda c, s: lambda x: math.tanh(s * (x - c)),
    "cubic": lambda c, s: lambda x: (x - c) ** 3 + s * (x - c),
    "wiggly-exp": lambda c, s: lambda x: math.expm1(s * (x - c)) + 1e-3 * math.sin(7.0 * x),
    "steep": lambda c, s: lambda x: math.atan(50.0 * s * (x - c)) - 0.1 * s,
    # a triple root: many brackets exhaust the default 100 steps, so whether
    # each step counts against the cap is part of what is compared
    "triple": lambda c, s: lambda x: math.tanh(20.0 * s * (x - c)) ** 3,
}


def outcome(solver, f, a, b, **tols):
    try:
        return solver(f, a, b, **tols).hex()
    except (RuntimeError, NoConvergence):
        return "no convergence"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_brentq_matches_scipy_bit_for_bit(family):
    rng = np.random.default_rng(20261018)
    for i in range(250):
        c, s = rng.uniform(-5.0, 5.0), rng.uniform(0.1, 3.0)
        f = FAMILIES[family](c, s)
        a, b = rng.uniform(-10.0, c - 0.5), rng.uniform(c + 0.5, 10.0)
        tols = {} if i % 2 else {"xtol": 1e-12, "rtol": 8.9e-16}
        want = outcome(scipy_brentq, f, a, b, **tols)
        assert outcome(brentq, f, a, b, **tols) == want, (family, c, s, a, b, tols)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x - 1.5, 1.5, 4.0),  # root at the left end
        (lambda x: x - 4.0, 1.5, 4.0),  # root at the right end
        (lambda x: x, -1.0, 1.0),  # the first bisection step lands on the root
        (lambda x: 2.0 * x - 1.0, -2.0, 3.0),  # and the first secant step
        (lambda x: x**3 - 2.0, 0.0, 2.0),
    ],
)
def test_brentq_edge_cases_match_scipy(f, a, b):
    assert brentq(f, a, b).hex() == scipy_brentq(f, a, b).hex()


@pytest.mark.parametrize(
    "f, a, b, tols",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}),  # no sign change
        (lambda x: x - 0.3, 1.0, 2.0, {}),
        (lambda x: math.nan, 0.0, 1.0, {}),
        (lambda x: x, -1.0, 1.0, {"xtol": 0.0}),
        (lambda x: x, -1.0, 1.0, {"rtol": 1e-16}),
    ],
)
def test_brentq_rejects_what_scipy_rejects(f, a, b, tols):
    with pytest.raises(ValueError):
        scipy_brentq(f, a, b, **tols)
    with pytest.raises(ValueError):
        brentq(f, a, b, **tols)


def test_brentq_iteration_cap_raises_typed_error():
    def f(x):
        return x**3 - 2.0

    with pytest.raises(RuntimeError):
        scipy_brentq(f, 0.0, 3.0, maxiter=3)
    with pytest.raises(NoConvergence) as info:
        brentq(f, 0.0, 3.0, maxiter=3)
    assert isinstance(info.value, PricingError)
    assert brentq(f, 0.0, 3.0).hex() == scipy_brentq(f, 0.0, 3.0).hex()


@pytest.mark.parametrize(
    "dfs, rel", [(range(1, 100), 1e-14), ([*range(100, 2000, 37), 2000], 1e-12)]
)
def test_t_quantile_matches_stdtrit(dfs, rel):
    for df in dfs:
        want = float(stdtrit(df, 0.975))
        assert t_quantile(df, 0.975) == pytest.approx(want, rel=rel, abs=0.0), df


def test_t_quantile_symmetry_and_closed_forms():
    # df = 1 is Cauchy and df = 2 has t = (2q - 1) sqrt(2 / (1 - (2q - 1)^2))
    assert t_quantile(1, 0.9) == pytest.approx(math.tan(0.4 * math.pi), rel=1e-14)
    assert t_quantile(2, 0.9) == pytest.approx(0.8 * math.sqrt(2.0 / 0.36), rel=1e-14)
    for df in (1, 4, 7):
        assert t_quantile(df, 0.025) == -t_quantile(df, 0.975)
    assert t_quantile(np.int64(7), 0.975) == t_quantile(7, 0.975)


@pytest.mark.parametrize("df", [0, -3, 2.5, 3.0, "5"])
def test_t_quantile_rejects_bad_df(df):
    with pytest.raises(ValueError):
        t_quantile(df, 0.975)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.1, math.nan])
def test_t_quantile_rejects_bad_q(q):
    with pytest.raises(ValueError):
        t_quantile(3, q)
