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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .arrival import Exponential
from .errors import NoConvergence, NoFiniteMaximizer
from .model import SystemSpec
from .stationary import revenue_rate
from .valuation import eval_m, tail


@dataclass(frozen=True)
class PoissonSolveResult:
    theta_star: float
    deltas: np.ndarray
    prices: np.ndarray
    iterations: int
    bracket_width: float


def _require_poisson(spec: SystemSpec) -> None:
    if not spec.is_poisson:
        raise ValueError(
            f"this solver needs exponential interarrivals, got {type(spec.arrival).__name__}"
        )


def g_chain(spec: SystemSpec, theta: float) -> np.ndarray:
    """(g_0(theta), ..., g_{K-1}(theta)) by downward recursion; NoConvergence on overflow."""
    _require_poisson(spec)
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    k, mu, lam = spec.servers, spec.mu, spec.arrival_rate
    theta = float(theta)  # Python floats overflow to inf, caught below, with no warning
    g = np.empty(k)
    gi = g[k - 1] = theta / (k * mu)
    for i in range(k - 1, 0, -1):
        gi = (theta - lam * eval_m(spec.valuation, gi).m_val) / (i * mu)
        if not math.isfinite(gi):
            raise NoConvergence(f"g-chain overflows at state {i - 1} (theta = {theta:.9g})")
        g[i - 1] = gi
    return g


def fixed_point(spec: SystemSpec, delta_precision: float = 1e-9) -> PoissonSolveResult:
    """Bisect theta = lambda m(g_0(theta)) to within delta_precision.

    Bracket update per iteration, with v = lambda m(g_0(midpoint)):
    the new lower end is max(old, min(mid, v)), the new upper end
    min(old, max(mid, v)).  Either way the width halves and the ends never
    cross; once they are adjacent floats the width stops shrinking, and a
    delta_precision below that spacing raises NoConvergence after 2000 steps.
    The prices must earn theta* (revenue_rate) within delta_precision + 1e-9
    max(1, theta*); the chain amplifies any error in theta, so until they do
    bisection goes on, raising NoConvergence at adjacent floats or overflow.
    """
    _require_poisson(spec)
    if not delta_precision > 0:
        raise ValueError(f"delta_precision must be > 0, got {delta_precision}")
    lam, val = spec.arrival_rate, spec.valuation

    with np.errstate(over="ignore"):  # lam m(g_0) may overflow; inf is handled below
        lo = 0.0
        try:
            hi = lam * eval_m(val, g_chain(spec, 0.0)[0]).m_val
            if not math.isfinite(hi):
                raise NoFiniteMaximizer(f"initial upper end {hi}")
        except NoFiniteMaximizer:
            # still valid: theta* = lam m(Delta(0)) < lam m(0) since Delta(0) > 0
            hi = lam * eval_m(val, 0.0).m_val

        iterations = 0
        while True:
            mid = 0.5 * (lo + hi)
            deltas = g_chain(spec, mid)
            if hi - lo <= delta_precision:
                prices = np.array([eval_m(val, d).u_star for d in deltas])
                rate = revenue_rate(spec, prices)
                if abs(rate - mid) <= delta_precision + 1e-9 * max(1.0, mid):
                    break
                if not lo < mid < hi:
                    raise NoConvergence(f"prices earn {rate:.9g}, not theta* = {mid:.9g}")
            v = lam * eval_m(val, deltas[0]).m_val
            lo = max(lo, min(mid, v))
            hi = min(hi, max(mid, v))
            iterations += 1
            if iterations > 2000:
                raise NoConvergence(f"no convergence after {iterations} steps, width {hi - lo}")
    return PoissonSolveResult(
        theta_star=mid,
        deltas=deltas,
        prices=prices,
        iterations=iterations,
        bracket_width=hi - lo,
    )


def infinite_server_limit(spec: SystemSpec) -> tuple[float, float]:
    """(revenue rate, price) when servers are never scarce.

    With unlimited capacity a single price is optimal: the maximizer of
    u Gbar(u), earning lambda m(0).  Upper-bounds every finite-K revenue.
    """
    ev = eval_m(spec.valuation, 0.0)
    return spec.arrival_rate * ev.m_val, ev.u_star


def value_iteration_oracle(
    spec: SystemSpec, tol: float = 1e-8, max_sweeps: int = 1_000_000
) -> float:
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
    h, theta, spans_ok = _rvi(grid, spec, big_lambda, tol, max_sweeps)

    # refine near the maximizers the current solution points at
    dh = h[:-1] - h[1:]  # estimated Delta(i)
    extra = []
    step = q_hi / 4095
    for d in dh:
        u = eval_m(val, float(d)).u_star
        extra.append(np.linspace(max(u - 3 * step, 0.0), u + 3 * step, 64))
    grid2 = np.unique(np.concatenate([grid, *extra]))
    _, theta2, spans_ok2 = _rvi(grid2, spec, big_lambda, tol, max_sweeps)
    if not (spans_ok and spans_ok2):
        raise NoConvergence(f"value-iteration span above {tol} after {max_sweeps} sweeps")
    return theta2


def _rvi(grid: np.ndarray, spec: SystemSpec, big_lambda: float, tol: float, max_sweeps: int):
    k, mu, lam, val = spec.servers, spec.mu, spec.arrival_rate, spec.valuation
    qs = lam * np.asarray(tail(val, grid)) / big_lambda
    rs = grid * qs
    h = np.zeros(k + 1)
    i_arr = np.arange(k)
    down = i_arr * mu / big_lambda
    theta = math.nan
    for _ in range(max_sweeps):
        th = np.empty(k + 1)
        dh = h[1:] - h[:-1]
        # max over the price grid of q(u) * (u + h(i+1) - h(i)), per state
        gain = np.max(rs[None, :] + qs[None, :] * dh[:, None], axis=1)
        th[:k] = down * np.r_[0.0, h[: k - 1]] + (1.0 - down) * h[:k] + gain
        th[k] = (k * mu / big_lambda) * h[k - 1] + (1.0 - k * mu / big_lambda) * h[k]
        diff = th - h
        lbl, ubl = float(np.min(diff)), float(np.max(diff))
        theta = big_lambda * 0.5 * (lbl + ubl)
        h = th - th[0]
        if big_lambda * (ubl - lbl) <= tol:
            return h, theta, True
    return h, theta, False


@dataclass(frozen=True)
class SweepRow:
    """One solved instance along a parameter sweep."""

    param: str
    value: float
    result: PoissonSolveResult

    @property
    def theta_star(self) -> float:
        return self.result.theta_star

    @property
    def ratio(self) -> float:
        """theta* divided by the varied parameter."""
        return self.result.theta_star / self.value


def sweep(spec: SystemSpec, vary: str, grid: Sequence[float]) -> list[SweepRow]:
    """Re-solve the system along a strictly increasing parameter grid.

    vary is one of 'lambda', 'mu', 'K' (alias 'servers').  Rows come back
    in grid order with theta*, theta*/parameter and the full price vector.
    """
    _require_poisson(spec)
    vals = [float(v) for v in grid]
    if len(vals) == 0 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    rows = []
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
        rows.append(SweepRow(param=vary, value=v, result=fixed_point(s)))
    return rows
