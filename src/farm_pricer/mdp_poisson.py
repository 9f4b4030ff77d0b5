"""Optimal state-dependent pricing under Poisson arrivals.

The average-reward Bellman system for the uniformized chain collapses to a
one-dimensional fixed point: with reward differences Delta(i) written as a
chain g_i(theta) computed downward from g_{K-1} = theta / (K mu) via

    g_{i-1}(theta) = (theta - lambda m(g_i(theta))) / (i mu),

the optimal revenue rate is the unique solution of theta = lambda m(g_0(theta)).
`fixed_point` brackets that solution by bisection with the certified update
rule (the candidate map is a contraction toward the root from either side),
and prices follow as u*(Delta(i)); it returns them only when their revenue
rate matches theta*.  `value_iteration_oracle` solves the same MDP by
relative value iteration over a discretized price grid, deliberately
sharing no code path with the fixed point, for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import mdp_general
from .arrival import Exponential
from .errors import NoConvergence
from .model import SolveResult, SystemSpec
from .stationary import revenue_rate
from .valuation import ValuationDist, eval_m

_RVI_TOL = 1e-8  # span of the relative value iteration's theta estimates
_RVI_MAX_SWEEPS = 1_000_000


def _require_poisson(spec: SystemSpec) -> None:
    if not spec.is_poisson:
        raise ValueError(
            f"this solver needs exponential interarrivals, got {type(spec.arrival).__name__}"
        )


def _chain(theta: float, k: int, mu: float, lam: float, val: ValuationDist) -> list[float]:
    """(g_0(theta), ..., g_{K-1}(theta)) by downward recursion; NoConvergence on overflow."""
    g = [0.0] * k
    gi = g[k - 1] = theta / (k * mu)
    for i in range(k - 1, 0, -1):
        gi = (theta - lam * eval_m(val, gi).m_val) / (i * mu)
        if not math.isfinite(gi):
            raise NoConvergence(f"g-chain overflows at state {i - 1} (theta = {theta:.9g})")
        g[i - 1] = gi
    return g


def fixed_point(spec: SystemSpec) -> SolveResult:
    """Bisect theta = lambda m(g_0(theta)) to a width of 1e-12 lambda m(0).

    lambda m(0), the infinite-server revenue (`optimize_uniform`'s
    revenue_inf_bound), bounds theta* above, so the width is relative to
    the problem's own revenue scale and theta* comes out the same in any
    unit of the valuations.  Bracket update per iteration, with v = lambda
    m(g_0(midpoint)): the new lower end is max(old, min(mid, v)), the new
    upper end min(old, max(mid, v)).  Either way the width halves and the
    ends never cross.  The prices must earn theta* (revenue_rate) within
    that width + 1e-9 theta*; the chain amplifies any error in theta, so
    until they do bisection goes on, raising NoConvergence at adjacent
    floats, after 2000 steps or on overflow.  iterations counts the steps.

    residuals are lambda m(Delta(i)) + i mu Delta(i-1) - theta* for i < K and
    K mu Delta(K-1) - theta* for the full state.  The chain solves those of
    states 1..K to rounding, so residuals[0], the closing condition theta =
    lambda m(Delta(0)), carries the bisection's defect.  They are reported,
    not gated: in heavy traffic residuals[0] can be of the order of theta*.
    """
    _require_poisson(spec)
    k, mu, lam, val = spec.servers, spec.mu, spec.arrival_rate, spec.valuation
    cap = lam * eval_m(val, 0.0).m_val
    tol = 1e-12 * cap

    lo = 0.0
    hi = lam * eval_m(val, _chain(0.0, k, mu, lam, val)[0]).m_val
    if not math.isfinite(hi):
        # still valid: theta* = lam m(Delta(0)) < lam m(0) since Delta(0) > 0
        hi = cap

    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        deltas = _chain(mid, k, mu, lam, val)
        if hi - lo <= tol:
            evs = [eval_m(val, d) for d in deltas]
            prices = np.array([e.u_star for e in evs])
            rate = revenue_rate(spec, prices)
            if abs(rate - mid) <= tol + 1e-9 * mid:
                break
            if not lo < mid < hi:
                raise NoConvergence(f"prices earn {rate:.9g}, not theta* = {mid:.9g}")
        v = lam * eval_m(val, deltas[0]).m_val
        lo = max(lo, min(mid, v))
        hi = min(hi, max(mid, v))
        iterations += 1
        if iterations > 2000:
            raise NoConvergence(f"no convergence after {iterations} steps, width {hi - lo}")
    m_vals = np.array([e.m_val for e in evs] + [0.0])
    deltas = np.array(deltas)
    residuals = lam * m_vals + np.arange(k + 1) * mu * np.append(0.0, deltas) - mid
    return SolveResult(mid, deltas, prices, residuals, iterations)


def value_iteration_oracle(spec: SystemSpec) -> float:
    """Average revenue rate by relative value iteration on the uniformized chain.

    Controls live on a 4096-point price grid over [0, Q(1e-9)], then the
    grid is refined once around the maximizers implied by the first pass
    (u* applied to the estimated reward differences).  Entirely independent
    of the fixed-point path, so agreement is meaningful evidence.
    """
    _require_poisson(spec)
    k, mu, lam, val = spec.servers, spec.mu, spec.arrival_rate, spec.valuation
    big_lambda = k * mu + lam
    q_hi = val.tail_quantile(1e-9)

    grid = np.linspace(0.0, q_hi, 4096)
    h, _ = _rvi(grid, spec, big_lambda)

    # refine near the maximizers the current solution points at
    dh = h[:-1] - h[1:]  # estimated Delta(i)
    extra = []
    step = q_hi / 4095
    for d in dh:
        u = eval_m(val, float(d)).u_star
        extra.append(np.linspace(max(u - 3 * step, 0.0), u + 3 * step, 64))
    grid2 = np.unique(np.concatenate([grid, *extra]))
    return _rvi(grid2, spec, big_lambda)[1]


def _rvi(grid: np.ndarray, spec: SystemSpec, big_lambda: float):
    """(h, theta) once the span of the theta estimates is within _RVI_TOL."""
    k, mu, lam, val = spec.servers, spec.mu, spec.arrival_rate, spec.valuation
    qs = lam * val.tail(grid) / big_lambda
    rs = grid * qs
    h = np.zeros(k + 1)
    i_arr = np.arange(k)
    down = i_arr * mu / big_lambda
    for _ in range(_RVI_MAX_SWEEPS):
        th = np.empty(k + 1)
        dh = h[1:] - h[:-1]
        # max over the price grid of q(u) * (u + h(i+1) - h(i)), per state
        gain = np.max(rs[None, :] + qs[None, :] * dh[:, None], axis=1)
        th[:k] = down * np.r_[0.0, h[: k - 1]] + (1.0 - down) * h[:k] + gain
        th[k] = (k * mu / big_lambda) * h[k - 1] + (1.0 - k * mu / big_lambda) * h[k]
        diff = th - h
        lbl, ubl = float(np.min(diff)), float(np.max(diff))
        h = th - th[0]
        if big_lambda * (ubl - lbl) <= _RVI_TOL:
            return h, big_lambda * 0.5 * (lbl + ubl)
    raise NoConvergence(f"value-iteration span above {_RVI_TOL} after {_RVI_MAX_SWEEPS} sweeps")


def sweep(spec: SystemSpec, vary: str, grid: Sequence[float]) -> list[SolveResult]:
    """Re-solve the system along a strictly increasing parameter grid.

    vary is one of 'lambda', 'mu', 'K' (alias 'servers').  The
    `solve_general` results come back in grid order, one per grid value.
    """
    _require_poisson(spec)
    vals = [float(v) for v in grid]
    if len(vals) == 0 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    results = []
    for v in vals:
        if vary == "lambda":
            s = replace(spec, arrival=Exponential(rate=v))
        elif vary == "mu":
            s = replace(spec, mu=v)
        elif vary in ("K", "servers"):
            if v != int(v):
                raise ValueError(f"server counts must be integers, got {v}")
            s = replace(spec, servers=int(v))
        else:
            raise ValueError(f"vary must be 'lambda', 'mu' or 'K', got '{vary}'")
        results.append(mdp_general.solve_general(s))
    return results
