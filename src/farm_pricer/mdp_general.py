"""Optimal state-dependent pricing by Howard's policy iteration, any renewal stream.

An average-reward MDP on the busy count i = 0..K (Puterman, *Markov Decision
Processes*, 1994, sec. 8.6).  Each pass evaluates the prices, which gives the
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
"""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np

from .arrival import departure_matrix
from .errors import NoConvergence
from .model import SolveResult, SystemSpec
from .stationary import embedded_chain, evaluate
from .valuation import eval_m

# Random specs took at most 6 iterations at K <= 40, load <= 5, and 13 at
# K <= 200, load <= 100; the cap only ends a solve that cannot certify.
_MAX_ITERATIONS = 50


def _improve(spec: SystemSpec, deltas) -> tuple[np.ndarray, np.ndarray]:
    """(u*(Delta(i)) for i < K, m(Delta(i)) with m = 0 at the full state)."""
    evs = [eval_m(spec.valuation, d) for d in deltas]
    return np.array([e.u_star for e in evs]), np.array([e.m_val for e in evs] + [0.0])


def _embedded_step(spec: SystemSpec, surv: np.ndarray, prices: np.ndarray):
    """(g per arrival, theta, B, improved prices, Bellman defects) by one dense solve."""
    k, lam = spec.servers, spec.arrival_rate
    gbar = np.append(spec.valuation.tail(prices), 0.0)
    lhs = np.eye(k + 1) - embedded_chain(surv, gbar)
    lhs[:, 0] = 1.0  # h(0) = 0 frees its column for g
    try:
        x = np.linalg.solve(lhs, np.append(gbar[:k] * prices, 0.0))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"policy evaluation failed on {k + 1} states: {exc}") from None
    g, h = x[0], np.append(0.0, x[1:])
    theta = float(lam * g)
    b = (surv[:k] - surv[1:]) @ h
    improved, m_vals = _improve(spec, b)
    return g, theta, b, improved, lam * (m_vals + surv @ h - h) - theta


def _birth_death_step(spec: SystemSpec, prices: np.ndarray):
    """(theta as g, theta, Delta, improved prices, Bellman defects), O(K) Python floats."""
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
    lost = np.arange(k + 1) * mu * np.append(0.0, d)
    return theta, theta, np.array(d), improved, spec.arrival_rate * m_vals + lost - theta


def solve_general(spec: SystemSpec) -> SolveResult:
    """theta* and the optimal prices, for Poisson or renewal arrivals.

    From the myopic prices u*(0) until the prices repeat, the defects reach
    the rounding floor 64 eps (K+1) theta, or the gain g (per arrival on the
    embedded chain, theta on the birth-death chain) stops rising with the
    defects within the certificate.  A Poisson solve then evaluates the
    prices it returns, so theta*, deltas and residuals are theirs and theta*
    is their `revenue_rate`; a renewal solve reports the policy before the
    last improvement.  Raises NoConvergence if the certificate fails or an
    evaluation is singular.
    """
    if spec.is_poisson:
        step = partial(_birth_death_step, spec)
    else:
        step = partial(_embedded_step, spec, departure_matrix(spec.arrival, spec.mu, spec.servers))
    prices = np.full(spec.servers, eval_m(spec.valuation, 0.0).u_star)
    g_prev = -math.inf
    for iterations in range(1, _MAX_ITERATIONS + 1):
        g, theta, deltas, improved, residuals = step(prices)
        defect = float(np.max(np.abs(residuals)))
        done = (
            np.array_equal(improved, prices)
            or defect <= 64 * sys.float_info.epsilon * (spec.servers + 1) * theta
            or (g <= g_prev and defect <= 1e-9 * max(1.0, theta))
        )
        prices, g_prev = improved, g
        if done:
            break
    if spec.is_poisson:
        _, theta, deltas, _, residuals = step(prices)
        defect = float(np.max(np.abs(residuals)))
    gate = 1e-9 * max(1.0, theta)
    if not defect <= gate:
        raise NoConvergence(
            f"policy iteration stopped with Bellman defect {defect:.3g} above {gate:.3g} "
            f"(theta = {theta:.9g})"
        )
    return SolveResult(theta, deltas, prices, residuals, iterations)
