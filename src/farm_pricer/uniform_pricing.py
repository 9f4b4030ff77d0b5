"""Single-price (state-independent) admission pricing.

Under a uniform price p the admitted stream is a thinned renewal process and
the busy-server count is a generalized Erlang loss system, so the blocking
probability has the closed form

    pi_K(p) = 1 / sum_{j=0}^{K} C(K,j) Gbar(p)^{-j} beta_j,

with beta_j from the interarrival transform.  Revenue is
lambda p Gbar(p) (1 - pi_K(p)).  The module optimizes that over p, bounds
the gap to the best state-dependent policy, and exposes the heavy-traffic
throughput diagnostic lambda (1 - phi(mu)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .arrival import (
    Exponential,
    InterarrivalDist,
    _log_beta_seq,
    lst,
    rare_long_gap_family,
    rare_unit_gap_family,
)
from .errors import NoFiniteMaximizer
from .valuation import ValuationDist, _golden_max, eval_m, tail


@dataclass(frozen=True)
class UniformPricingResult:
    """Best single price for K servers, and the infinite-server benchmark.

    gap_upper is an upper bound on the revenue of the best state-dependent
    policy: revenue_K / (1 - pi_K(p_star_inf)).  coarse_gap bounds that
    policy's excess over revenue_K by revenue_K / (beta_1 K).
    """

    p_star_K: float
    revenue_K: float
    p_star_inf: float
    revenue_inf_bound: float
    gap_upper: float
    coarse_gap: float


def _blocking_curve(dist: InterarrivalDist, val: ValuationDist, mu: float, k: int):
    """p -> (Gbar(p), pi_K(p)) over an array of prices.

    log C(K,j) + log beta_j is built once here; each call then costs one
    (len(p) x K+1) log-sum-exp.
    """
    lf = np.array([math.lgamma(i + 1.0) for i in range(k + 1)])  # log 0! .. log K!
    terms = lf[k] - lf - lf[::-1] + _log_beta_seq(dist, mu, k)
    j = np.arange(k + 1)

    def curve(p):
        gbar = np.asarray(tail(val, p), dtype=float)
        # Gbar(p) = 0: nobody joins, the system drains and is never full
        joins = gbar > 0.0
        x = np.multiply.outer(np.log(np.where(joins, gbar, 1.0)), -j)
        x += terms
        top = x.max(axis=-1, keepdims=True)
        x -= top
        log_sum = top[..., 0] + np.log(np.exp(x, out=x).sum(axis=-1))
        return gbar, np.where(joins, np.exp(-log_sum), 0.0)

    return curve


def _revenue_curve(dist: InterarrivalDist, curve):
    """p -> lambda p Gbar(p) (1 - pi_K(p)) over an array of finite prices."""
    lam = 1.0 / dist.mean

    def revenue(p):
        gbar, block = curve(p)
        return lam * p * gbar * (1.0 - block)

    return revenue


def blocking_prob(
    dist: InterarrivalDist, val: ValuationDist, mu: float, k: int, p: float
) -> float:
    """Long-run fraction of admitted-willing arrivals that find all servers busy."""
    if float(tail(val, p)) <= 0.0:
        # nobody joins, the system drains and is never full
        return 0.0
    return float(_blocking_curve(dist, val, mu, k)(p)[1])


def revenue_uniform(
    dist: InterarrivalDist, val: ValuationDist, mu: float, k: int, p: float
) -> float:
    """Mean revenue rate lambda * p * Gbar(p) * (1 - pi_K(p)) at uniform price p."""
    if p < 0:
        raise ValueError(f"price must be >= 0, got {p}")
    if float(tail(val, p)) <= 0.0:
        return 0.0
    return float(_revenue_curve(dist, _blocking_curve(dist, val, mu, k))(p))


def optimize_uniform(
    dist: InterarrivalDist, val: ValuationDist, mu: float, k: int
) -> UniformPricingResult:
    """Maximize the uniform-price revenue over p.

    512-point log grid on (0, Q(1e-9)] followed by golden-section
    refinement; the revenue curve is not provably unimodal, so the grid
    does the global work and the section search only polishes.  On a flat
    maximum p_star_K is reproducible only to about 1.5e-8 (rounding-level
    revenue differences steer the polish); revenue_K to about 1e-15.
    """
    inf_eval = eval_m(val, 0.0)
    p_inf = inf_eval.u_star
    lam = 1.0 / dist.mean
    rev_inf = lam * inf_eval.m_val

    q_hi = val.tail_quantile(1e-9)
    cap_at_hi = q_hi * float(tail(val, q_hi))
    if inf_eval.m_val > 0.0 and cap_at_hi >= (1.0 - 1e-6) * inf_eval.m_val:
        # p Gbar(p) never leaves its supremum, so raising p only sheds
        # blocking and the revenue sup is approached, never attained
        raise NoFiniteMaximizer(
            f"p * Gbar(p) = {cap_at_hi:.6g} at the {1e-9:g} tail quantile "
            f"p = {q_hi:.6g} is still at the supremum {inf_eval.m_val:.6g}; "
            f"no finite optimal price exists"
        )
    curve = _blocking_curve(dist, val, mu, k)
    revenue = _revenue_curve(dist, curve)
    grid = np.geomspace(max(q_hi * 1e-9, 1e-300), q_hi, 512)
    rev = revenue(grid)
    i = int(np.argmax(rev))
    # test the tail just past the grid end: an atom at the end is a finite maximizer
    past_end = np.nextafter(grid[-1], math.inf)
    if i == len(grid) - 1 and rev[-1] > rev[-2] and tail(val, past_end) > 0:
        raise NoFiniteMaximizer(
            f"revenue still rising at p = {grid[-1]:.6g} (value {rev[-1]:.6g}); "
            f"no finite optimal price detected"
        )

    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    p_star = _golden_max(lambda p: float(revenue(p)), lo, hi, 1e-8)
    r_star = float(revenue(p_star))
    if rev[i] > r_star:
        p_star, r_star = float(grid[i]), float(rev[i])

    gap_upper = r_star / (1.0 - float(curve(p_inf)[1]))
    beta1 = float(np.exp(_log_beta_seq(dist, mu, 1)[1]))
    return UniformPricingResult(
        p_star_K=p_star,
        revenue_K=r_star,
        p_star_inf=p_inf,
        revenue_inf_bound=rev_inf,
        gap_upper=gap_upper,
        coarse_gap=r_star / (beta1 * k),
    )


def gap_bound(
    dist: InterarrivalDist, val: ValuationDist, mu: float, k: int
) -> tuple[float, float, float]:
    """Sandwich the optimal state-dependent revenue R*.

    Returns (lower, upper, coarse_gap) from optimize_uniform: the best
    uniform revenue is a lower bound, lower / (1 - pi_K(p_inf)) an upper
    bound, and coarse_gap the weaker transform-only bound lower / (beta_1 K)
    on R* - lower, which never needs a price search to state.
    """
    res = optimize_uniform(dist, val, mu, k)
    return res.revenue_K, res.gap_upper, res.coarse_gap


_FAMILIES: dict[str, Callable[[float], InterarrivalDist]] = {
    "poisson": lambda rate: Exponential(rate=rate),
    "rare-long-gap": rare_long_gap_family,
    "rare-unit-gap": rare_unit_gap_family,
}


def asymptotic_mu_tilde(
    family: Union[str, Callable[[float], InterarrivalDist]],
    mu: float,
    lambdas: Sequence[float],
) -> np.ndarray:
    """Evaluate the throughput-potential diagnostic lambda (1 - phi(mu)).

    `family` maps an arrival rate to an interarrival law (or names a
    built-in: poisson, rare-long-gap, rare-unit-gap).  Along an increasing
    rate grid the values trend toward the limiting effective service rate
    that caps uniform-price revenue at mu_tilde * p * K: mu for poisson, 0
    for rare-long-gap and (1 + mu - e^{-mu}) / 2 for rare-unit-gap.  A law
    with mean 1/lambda and all gaps in [0, 1], rare-unit-gap among them,
    gives a value of at least 1 - e^{-mu} at every rate.
    """
    if isinstance(family, str):
        key = family.replace("_", "-").lower()
        if key not in _FAMILIES:
            raise ValueError(f"unknown family '{family}'; choose from {sorted(_FAMILIES)}")
        maker = _FAMILIES[key]
    else:
        maker = family
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or len(lams) == 0 or np.any(np.diff(lams) <= 0):
        raise ValueError("lambdas must be a nonempty strictly increasing grid")
    return np.array([lam * (1.0 - lst(maker(lam), mu)) for lam in lams])
