"""Optimal state-dependent pricing: policy iteration, the Poisson fixed point, an oracle.

An average-reward MDP on the busy count i = 0..K (Puterman, *Markov Decision
Processes*, 1994, sec. 8.6).  `solve_general` runs Howard's policy iteration
for any renewal stream.  Each pass evaluates the prices, which gives the
paper's Delta(i), and improves them to u*(Delta(i)) by the exact `eval_m`.
Renewal arrivals are evaluated on the chain embedded at arrivals, P from the
survivor matrix S (`stationary.embedded_chain`): one dense solve of
h + g = r + P h, h(0) = 0, with r_i = Gbar(p_i) p_i, theta = lambda g and
Delta(i) = (S[i] - S[i+1]) h.  Poisson arrivals need no matrix: theta and pi
come from `stationary.evaluate`, and Delta from each state's equation
theta = lambda Gbar(p_i) (p_i - Delta(i)) + i mu Delta(i-1), theta = K mu
Delta(K-1) at the full state, solved toward the mode of pi from both ends, so
rounding does not build up.  The Bellman defects of the optimality equations
are the certificate: every one within 1e-9 max(1, theta*), or NoConvergence.

Under Poisson arrivals the optimality equations also collapse to the paper's
fixed point theta = lambda m(g_0(theta)), with Delta(i) = g_i(theta) computed
downward from g_{K-1} = theta / (K mu) by g_{i-1} = (theta - lambda m(g_i)) /
(i mu); `fixed_point` bisects it and starts the same policy iteration from
u*(g(theta)).  Both solvers return the `SolveResult` that their law's step
builds on the prices they return, so theta* is what those prices earn,
deltas their Delta and residuals their Bellman defects, gated alike.  The
`value_iteration_oracle` solves the same MDP by relative value iteration on
a discretized price grid, sharing no code path with either solver, as a check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from functools import partial
from typing import Sequence

import numpy as np

from .arrival import Exponential, departure_matrix
from .errors import NoConvergence
from .model import SolveResult, SystemSpec
from .stationary import embedded_chain, evaluate
from .valuation import ValuationDist, eval_m

# Random specs took at most 6 iterations at K <= 40, load <= 5, and 13 at
# K <= 200, load <= 100; the cap only ends a solve that cannot certify.
_MAX_ITERATIONS = 50
_RVI_TOL = 1e-8  # span of the relative value iteration's theta estimates
_RVI_MAX_SWEEPS = 1_000_000


def _require_poisson(spec: SystemSpec) -> None:
    if not spec.is_poisson:
        raise ValueError(
            f"this solver needs exponential interarrivals, got {type(spec.arrival).__name__}"
        )


def _improve(spec: SystemSpec, deltas) -> tuple[np.ndarray, np.ndarray]:
    """(u*(Delta(i)) for i < K, m(Delta(i)) with m = 0 at the full state)."""
    evs = [eval_m(spec.valuation, d) for d in deltas]
    return np.array([e.u_star for e in evs]), np.array([e.m_val for e in evs] + [0.0])


def _embedded_step(spec: SystemSpec, surv: np.ndarray, prices: np.ndarray, iterations: int):
    """(the SolveResult of prices, their improved prices) by one dense solve."""
    k, lam = spec.servers, spec.arrival_rate
    gbar = np.append(spec.valuation.tail(prices), 0.0)
    lhs = np.eye(k + 1) - embedded_chain(surv, gbar)
    lhs[:, 0] = 1.0  # h(0) = 0 frees its column for g
    try:
        x = np.linalg.solve(lhs, np.append(gbar[:k] * prices, 0.0))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"policy evaluation failed on {k + 1} states: {exc}") from None
    theta, h = float(lam * x[0]), np.append(0.0, x[1:])
    b = (surv[:k] - surv[1:]) @ h
    improved, m_vals = _improve(spec, b)
    residuals = lam * (m_vals + surv @ h - h) - theta
    return SolveResult(theta, b, prices, residuals, iterations), improved


def _birth_death_step(spec: SystemSpec, prices: np.ndarray, iterations: int):
    """(the SolveResult of prices, their improved prices), O(K) Python floats."""
    k, mu = spec.servers, spec.mu
    theta, pi = evaluate(spec, prices)
    rates = (spec.arrival_rate * spec.valuation.tail(prices)).tolist()
    p, mode, d = prices.tolist(), int(np.argmax(pi)), [0.0] * k
    prev = 0.0
    for i in range(mode):  # state i's equation gives Delta(i)
        prev = d[i] = p[i] - (theta - i * mu * prev) / rates[i]
    gain = 0.0  # lambda Gbar(p_{i+1}) (p_{i+1} - Delta(i+1)); none at the full state
    for i in range(k - 1, mode - 1, -1):  # state i + 1's equation gives Delta(i)
        d[i] = (theta - gain) / ((i + 1) * mu)
        gain = rates[i] * (p[i] - d[i])
    improved, m_vals = _improve(spec, d)
    lost = np.arange(k + 1) * mu * np.append(0.0, d)  # i mu Delta(i-1), the full state K last
    residuals = spec.arrival_rate * m_vals + lost - theta
    return SolveResult(theta, np.array(d), prices, residuals, iterations), improved


def solve_general(spec: SystemSpec) -> SolveResult:
    """theta* and the optimal prices, for Poisson or renewal arrivals.

    Policy iteration (`_policy_iteration`) from the myopic prices u*(0).
    Raises NoConvergence if the certificate fails or an evaluation is
    singular.
    """
    if spec.is_poisson:
        step = partial(_birth_death_step, spec)
    else:
        step = partial(_embedded_step, spec, departure_matrix(spec.arrival, spec.mu, spec.servers))
    return _policy_iteration(spec, step, np.full(spec.servers, eval_m(spec.valuation, 0.0).u_star))


def _policy_iteration(spec: SystemSpec, step, prices: np.ndarray) -> SolveResult:
    """Howard's passes from the given prices, and the certified record of the last ones.

    Passes run until the prices repeat, the defects reach the rounding floor
    64 eps (K+1) theta, or theta stops rising with the defects within the
    certificate.  The prices returned are then evaluated once more and that
    step's record is returned, so theta*, deltas and residuals are theirs
    and iterations counts the passes.  NoConvergence if the certificate fails.
    """
    theta_prev = -math.inf
    for iterations in range(1, _MAX_ITERATIONS + 1):
        res, improved = step(prices, iterations)
        theta, defect = res.theta_star, float(np.max(np.abs(res.residuals)))
        done = (
            np.array_equal(improved, prices)
            or defect <= 64 * sys.float_info.epsilon * (spec.servers + 1) * theta
            or (theta <= theta_prev and defect <= 1e-9 * max(1.0, theta))
        )
        prices, theta_prev = improved, theta
        if done:
            break
    res = step(prices, iterations)[0]
    defect, gate = float(np.max(np.abs(res.residuals))), 1e-9 * max(1.0, res.theta_star)
    if not defect <= gate:
        raise NoConvergence(
            f"policy iteration stopped with Bellman defect {defect:.3g} above {gate:.3g} "
            f"(theta = {res.theta_star:.9g})"
        )
    return res


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
    """Bisect theta = lambda m(g_0(theta)) to a width of 1e-9 lambda m(0), then policy-iterate.

    lambda m(0), the infinite-server revenue (`optimize_uniform`'s
    revenue_inf_bound), bounds theta* above, so the width is relative to
    the problem's own revenue scale.  Bracket update per step, with v =
    lambda m(g_0(midpoint)): the new lower end is max(old, min(mid, v)), the
    new upper end min(old, max(mid, v)).  Either way the width at least
    halves and the ends never cross.  The prices u*(g(midpoint)) then start
    `_policy_iteration`, whose record and certificate gate are those of a
    Poisson `solve_general`.  NoConvergence after 2000 steps, when the chain
    overflows, or when the certificate fails.
    """
    _require_poisson(spec)
    k, mu, lam, val = spec.servers, spec.mu, spec.arrival_rate, spec.valuation
    cap = lam * eval_m(val, 0.0).m_val
    tol = 1e-9 * cap

    lo = 0.0
    hi = lam * eval_m(val, _chain(0.0, k, mu, lam, val)[0]).m_val
    if not math.isfinite(hi):
        # still valid: theta* = lam m(Delta(0)) < lam m(0) since Delta(0) > 0
        hi = cap

    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        deltas = _chain(mid, k, mu, lam, val)
        if hi - lo <= tol:
            step = partial(_birth_death_step, spec)
            return _policy_iteration(spec, step, _improve(spec, deltas)[0])
        v = lam * eval_m(val, deltas[0]).m_val
        lo = max(lo, min(mid, v))
        hi = min(hi, max(mid, v))
        steps += 1
        if steps > 2000:
            raise NoConvergence(f"no convergence after {steps} steps, width {hi - lo}")


def value_iteration_oracle(spec: SystemSpec) -> float:
    """Average revenue rate by relative value iteration on the uniformized chain.

    Controls live on a 4096-point price grid over [0, Q(1e-9)], then the
    grid is refined once around the maximizers implied by the first pass
    (u* applied to the estimated reward differences).  Entirely independent
    of the solvers' code paths, so agreement is meaningful evidence.
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

    vary is one of 'lambda', 'mu', 'K' (alias 'servers').  The grid must be
    nonempty, finite and strictly increasing, and every system on it valid,
    before the first solve.  The `solve_general` results come back in grid
    order, one per grid value.
    """
    _require_poisson(spec)
    vals = [float(v) for v in grid]
    if not (vals and all(map(math.isfinite, vals)) and all(a < b for a, b in zip(vals, vals[1:]))):
        raise ValueError("grid must be nonempty, finite and strictly increasing")
    specs = []
    for v in vals:
        if vary == "lambda":
            specs.append(replace(spec, arrival=Exponential(rate=v)))
        elif vary == "mu":
            specs.append(replace(spec, mu=v))
        elif vary in ("K", "servers"):
            if v != int(v):
                raise ValueError(f"server counts must be integers, got {v}")
            specs.append(replace(spec, servers=int(v)))
        else:
            raise ValueError(f"vary must be 'lambda', 'mu' or 'K', got '{vary}'")
    return [solve_general(s) for s in specs]
