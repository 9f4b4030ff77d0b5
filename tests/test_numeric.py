"""The stdlib bisection, the Student-t quantile against scipy, and the
positive-finite check at every entry point that takes a service rate.

scipy is only a test dependency: it serves here as the independent oracle.
"""

import math

import numpy as np
import pytest
from scipy.special import stdtrit

from farm_pricer import (
    Exponential,
    ExponentialValuation,
    SystemSpec,
    asymptotic_mu_tilde,
    blocking_prob,
    departure_matrix,
    log_beta_seq,
    optimize_uniform,
    revenue_uniform,
)
from farm_pricer._numeric import bisect, t_quantile


def test_bisect_stops_at_adjacent_floats():
    # below(x) switches at sqrt(2): the answer is the first float with x^2 >= 2
    r = bisect(lambda x: x * x < 2.0, 0.0, 2.0)
    assert r * r >= 2.0 > math.nextafter(r, 0.0) ** 2
    # the ends are not evaluated, so a predicate undefined there is fine
    r = bisect(lambda x: math.log(x) < -1.0, 0.0, 1.0)
    assert math.log(r) >= -1.0 > math.log(math.nextafter(r, 0.0))


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


LAWS = (Exponential(rate=25.0), ExponentialValuation(beta=1.0))
MU_ENTRY_POINTS = {
    "optimize_uniform": lambda mu: optimize_uniform(*LAWS, mu, 5),
    "blocking_prob": lambda mu: blocking_prob(*LAWS, mu, 5, 1.0),
    "revenue_uniform": lambda mu: revenue_uniform(*LAWS, mu, 5, 1.0),
    "asymptotic_mu_tilde": lambda mu: asymptotic_mu_tilde("poisson", mu, [1.0, 2.0]),
    "departure_matrix": lambda mu: departure_matrix(Exponential(rate=3.0), mu, 3),
    "beta_seq": lambda mu: log_beta_seq(Exponential(rate=3.0), mu, 3),
    "SystemSpec": lambda mu: SystemSpec(5, mu, *LAWS),
}


@pytest.mark.parametrize("mu", [0.0, -2.0, math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(MU_ENTRY_POINTS))
def test_service_rate_must_be_positive_and_finite(entry, mu):
    with pytest.raises(ValueError, match=f"^mu must be positive and finite, got {mu}$"):
        MU_ENTRY_POINTS[entry](mu)
