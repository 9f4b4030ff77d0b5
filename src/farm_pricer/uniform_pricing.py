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

from ._numeric import positive_finite, positive_int
from .arrival import (
    Exponential,
    InterarrivalDist,
    log_beta_seq,
    rare_long_gap_family,
    rare_unit_gap_family,
)
from .errors import NoConvergence
from .valuation import TabulatedTail, ValuationDist, eval_m

_BLOCK_FLOATS = 2**13  # float64 entries per log-sum-exp block: 64 KB
_GRID_DOUBLINGS = 16  # price doublings past Q(1e-9) before the grid end is given up
_GRID_STEPS = np.arange(512.0)  # 0 .. 511: the log grid's exponents, in steps
_ZOOM_STEPS = np.arange(17.0)  # 0 .. 16: one zoom pass's prices, in steps
_GRID_STEPS.flags.writeable = _ZOOM_STEPS.flags.writeable = False


def _log_grid(lo: float, hi: float) -> np.ndarray:
    """np.geomspace(lo, hi, 512) for positive ends: the same steps and bits, no wrapper."""
    log_lo = np.log10(lo)
    grid = np.power(10.0, _GRID_STEPS * ((np.log10(hi) - log_lo) / 511) + log_lo)
    grid[0], grid[-1] = lo, hi
    return grid


def _zoom_prices(lo: float, hi: float) -> np.ndarray:
    """np.linspace(lo, hi, 17) for lo < hi: the same steps and bits, no wrapper."""
    ps = _ZOOM_STEPS * ((hi - lo) / 16) + lo
    ps[-1] = hi
    return ps


@dataclass(frozen=True)
class UniformPricingResult:
    """Best single price for K servers, and the infinite-server benchmark.

    With unlimited servers one price, p_star_inf = u*(0), is optimal; it
    earns revenue_inf_bound = lambda m(0), which bounds every finite-K
    revenue.  The revenue R* of the best state-dependent policy lies in
    [revenue_K, gap_upper], gap_upper = revenue_K / (1 - pi_K(p_star_inf)).
    coarse_gap bounds R* - revenue_K by revenue_K / (beta_1 K).
    """

    p_star_K: float
    revenue_K: float
    p_star_inf: float
    revenue_inf_bound: float
    gap_upper: float
    coarse_gap: float


def _curve(dist: InterarrivalDist, val: ValuationDist, mu: float, k: int):
    """p -> (Gbar(p), pi_K(p), lambda p Gbar(p) (1 - pi_K(p))), and log beta_0..K.

    log C(K,j) + log beta_j is built once; each call, on a price or an
    array of prices, runs the log-sum-exp over blocks of max(1, 2**13 //
    (K+1)) prices, so no temporary exceeds 64 KB.  Every step reduces along
    a row, so a price gets the same bits in any block: optimize_uniform
    relies on that when it evaluates only the grid prices its bound leaves.
    """
    log_beta = log_beta_seq(dist, mu, k)
    lf = np.array([math.lgamma(i + 1.0) for i in range(k + 1)])  # log 0! .. log K!
    terms = lf[k] - lf - lf[::-1] + log_beta
    neg_j = -np.arange(k + 1.0)  # -j as floats, so no block casts it
    rows = max(1, _BLOCK_FLOATS // (k + 1))
    lam = 1.0 / dist.mean

    def curve(p):
        gbar = val.tail(p)
        # Gbar(p) = 0: nobody joins, the system drains and is never full
        joins = gbar > 0.0
        log_g = np.log(np.where(joins, gbar, 1.0)).ravel()
        log_sum = np.empty_like(log_g)
        for s in range(0, log_g.size, rows):
            x = np.multiply.outer(log_g[s : s + rows], neg_j)
            x += terms
            top = np.maximum.reduce(x, axis=1, keepdims=True)
            x -= top
            log_sum[s : s + rows] = top[:, 0] + np.log(np.add.reduce(np.exp(x, out=x), axis=1))
        block = np.where(joins, np.exp(-log_sum.reshape(gbar.shape)), 0.0)
        return gbar, block, lam * p * gbar * (1.0 - block)

    return curve, log_beta


def _at(dist: InterarrivalDist, val: ValuationDist, mu: float, k: int, p: float):
    """(pi_K(p), revenue) at one price; where nobody joins (p = inf too) both are 0."""
    positive_finite("mu", mu)
    k = positive_int("k", k)
    if val.tail(p) <= 0.0:
        return 0.0, 0.0
    _, block, rev = _curve(dist, val, mu, k)[0](p)
    return float(block), float(rev)


def blocking_prob(
    dist: InterarrivalDist, val: ValuationDist, mu: float, k: int, p: float
) -> float:
    """Long-run fraction of admitted-willing arrivals that find all servers busy."""
    if math.isnan(p):
        raise ValueError("price must not be NaN")
    with np.errstate(over="ignore", invalid="ignore"):  # _at's revenue may overflow; unread here
        return _at(dist, val, mu, k, p)[0]


def revenue_uniform(
    dist: InterarrivalDist, val: ValuationDist, mu: float, k: int, p: float
) -> float:
    """Mean revenue rate lambda * p * Gbar(p) * (1 - pi_K(p)) at uniform price p."""
    if not p >= 0:  # NaN included
        raise ValueError(f"price must be >= 0, got {p}")
    return _at(dist, val, mu, k, p)[1]


def optimize_uniform(
    dist: InterarrivalDist, val: ValuationDist, mu: float, k: int
) -> UniformPricingResult:
    """Maximize the uniform-price revenue over p.

    A 512-point log grid on (0, Q(1e-9)], joined for a tabulated tail by its
    knots and p_star_inf inside that range, extended past Q(1e-9) until no
    price beyond its end can earn more than its best.  The blocking
    log-sum-exp runs only at the grid prices whose no-blocking revenue
    U(p) = lam p Gbar(p) is not below the revenue at U's maximizer: the
    revenue is U (1 - pi_K) with U computed as curve computes it, so it is
    at most U bit for bit and a skipped price cannot be the first maximum.
    Then a vector zoom: each pass evaluates 17 evenly spaced prices of the
    bracket around the best so far and keeps the two neighbours of the
    first maximum, until the bracket is 1e-8 of its upper end wide, so
    every price scale gets the same polish.  The revenue curve is not
    provably unimodal, so the grid does the global work and the zoom only
    polishes.  On a flat
    maximum p_star_K is reproducible only to about 5e-8 relative
    (rounding-level revenue differences steer the zoom); revenue_K to about
    1e-15.  NoConvergence if 16 doublings leave the grid end uncertified, or
    if 1 - pi_K(p_star_K) < 1e-9, where rounding picked the price.
    NoFiniteMaximizer from the grid end's eval_m for a Pareto tail, whose
    p Gbar(p) never leaves its supremum.
    """
    positive_finite("mu", mu)
    k = positive_int("k", k)
    inf_eval = eval_m(val, 0.0)
    p_inf = inf_eval.u_star
    lam = 1.0 / dist.mean

    q_hi = val.tail_quantile(1e-9)
    curve, log_beta = _curve(dist, val, mu, k)
    grid = _log_grid(max(q_hi * 1e-9, 1e-300), q_hi)
    if isinstance(val, TabulatedTail):
        # a hump peaking on a knot rises only like p on its left, so the
        # nearest grid price can read it percents low: knots and p_inf join
        knots = np.array([*val.xs, p_inf])
        grid = np.union1d(grid, knots[(knots > grid[0]) & (knots < q_hi)])
    # U = lam p Gbar(p) as curve forms it bounds its revenue bit for bit.  A
    # NaN or inf U rules nothing out, so curve meets, and warns of, every
    # overflow of U at that very price; a one-price array, not a scalar,
    # keeps the warnings' text ("multiply", not "scalar multiply").
    gbar = val.tail(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = lam * grid * gbar
    top = bound.argmax()
    live = ~(bound < curve(grid[top : top + 1])[2])
    rev = np.full(grid.shape, -math.inf)
    rev[live] = curve(grid[live])[2]
    # Past the grid end q, blocking only lowers revenue below lam p Gbar(p),
    # and p Gbar(p) = (p - q) Gbar(p) + q Gbar(p) <= m(q) + q Gbar(q+): once
    # lam times that is at most the best revenue, no later price can win.
    # Until then the grid grows by doublings of 17 points, 2^(1/17) apart.
    for doublings in range(_GRID_DOUBLINGS + 1):
        q = grid[-1]
        if lam * (eval_m(val, q).m_val + q * val.tail(np.nextafter(q, math.inf))) <= rev.max():
            break
        if doublings == _GRID_DOUBLINGS:
            raise NoConvergence(f"revenue past p = {q:.6g} may still beat the best grid price")
        more = q * 2.0 ** (np.arange(1, 18) / 17)
        grid, rev = np.append(grid, more), np.append(rev, curve(more)[2])
    i = int(np.argmax(rev))

    p_star, r_star = float(grid[i]), float(rev[i])
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    while hi - lo > 1e-8 * hi:
        ps = _zoom_prices(lo, hi)
        rs = curve(ps)[2]
        j = int(rs.argmax())  # the first maximum: ties go to the smaller price
        if rs[j] > r_star:
            p_star, r_star = float(ps[j]), float(rs[j])
        lo, hi, width = ps[max(j - 1, 0)], ps[min(j + 1, 16)], hi - lo
        if hi - lo >= width:  # the bracket is down to adjacent floats
            break

    admitted = 1.0 - float(curve(p_star)[1])
    if admitted < 1e-9:  # its rounding error, not the revenue, picked the price
        raise NoConvergence(f"1 - pi_K = {admitted:.3g} at p = {p_star:.6g} is below 1e-9")
    # pi_K(p_inf) rounds to 1 in extreme traffic, so gap_upper = inf; beta_1 =
    # inf for long gaps, so coarse_gap = 0
    with np.errstate(divide="ignore", over="ignore"):
        gap_upper = float(r_star / (1.0 - curve(p_inf)[1]))
        beta1 = float(np.exp(log_beta[1]))
    return UniformPricingResult(
        p_star_K=p_star,
        revenue_K=r_star,
        p_star_inf=p_inf,
        revenue_inf_bound=lam * inf_eval.m_val,
        gap_upper=gap_upper,
        coarse_gap=r_star / (beta1 * k),
    )


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
    positive_finite("mu", mu)
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
    # 1 - phi from the law's log(1 - phi), which stays exact when phi underflows
    return np.array([lam * math.exp(maker(lam).log_lst(mu)[1]) for lam in lams])
