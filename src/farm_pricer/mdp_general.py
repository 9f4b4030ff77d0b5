"""Optimal state-dependent pricing under general renewal arrivals.

Sampling the system at arrival instants gives a Markov chain on the busy
count i = 0..K that an arrival finds.  An arrival offered price p is
admitted with probability Gbar(p) and pays p; admitted or not, the next
arrival finds the survivors of one interarrival period
(`stationary.embedded_chain`).  Pricing is an average-reward MDP on that
chain, solved by Howard's policy iteration (Puterman, *Markov Decision
Processes*, 1994, sec. 8.6).  Each iteration

* evaluates the current prices: one dense solve of h + g = r + P h with
  h(0) = 0, where r_i = Gbar(p_i) p_i and theta = lambda g;
* improves them: p_i = u*(B_i) with B_i = E[h | reject] - E[h | admit],
  which is the exact surplus map `eval_m`.

In terms of Delta(j) = h(j) - h(j+1), alpha_{i,j} and a_{i,j} =
sum_{l<=j} alpha_{i,i-l}, the chance that at most j of i jobs survive a gap,

    B_i = sum_{j<i} (a_{i,j} - a_{i+1,j}) Delta(j) + alpha_{i+1,0} Delta(i),

and the Bellman equations are theta = lambda (m(B_i) + sum_{j<i} a_{i,j} Delta(j))
for i < K and theta = lambda sum_{j<K} a_{K,j} Delta(j).  Their defects are
the solve's certificate: it returns only when every defect is within
1e-9 max(1, theta*), and raises NoConvergence otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .arrival import departure_matrix
from .errors import NoConvergence, SingularChain
from .model import SystemSpec
from .stationary import embedded_chain
from .valuation import eval_m, tail

# Random specs took at most 6 iterations at K <= 40, load <= 5, and 13 at
# K <= 200, load <= 100; the cap only ends a solve that cannot certify.
_MAX_ITERATIONS = 50


@dataclass(frozen=True)
class GeneralSolveResult:
    """Solution of the arrival-sampled pricing problem.

    deltas[i] = h(i) - h(i+1) are the relative-value differences and b_vals
    the arguments B_i, with prices = u*(b_vals).  residuals holds the
    Bellman defects on the revenue-rate scale: lambda m(b_0) - theta, then
    lambda (m(b_i) + sum_{j<i} a_{i,j} Delta(j)) - theta for 0 < i < K, and
    lambda sum_{j<K} a_{K,j} Delta(j) - theta last.
    """

    theta_star: float
    deltas: np.ndarray
    b_vals: np.ndarray
    prices: np.ndarray
    residuals: np.ndarray


def solve_general(spec: SystemSpec) -> GeneralSolveResult:
    """Find theta* and the optimal price vector for a general renewal stream.

    Policy iteration from the myopic prices u*(0).  It stops when the prices
    repeat, when the Bellman defects reach the rounding floor
    64 eps (K+1) theta, or when g stopped rising with the defects already
    within the certificate 1e-9 max(1, theta).  Raises NoConvergence if the
    certificate does not hold when it stops.
    """
    k, lam, val = spec.servers, spec.arrival_rate, spec.valuation
    dep = departure_matrix(spec.arrival, spec.mu, k)
    reject, admit = embedded_chain(dep)
    a_below = np.tril(np.cumsum(reject, axis=1), -1)[:, :k]  # a_{i,j} for j < i
    prices = np.full(k, eval_m(val, 0.0).u_star)
    g_prev = -math.inf
    for _ in range(_MAX_ITERATIONS):
        gbar = np.append(tail(val, prices), 0.0)[:, None]
        lhs = np.eye(k + 1) - (1.0 - gbar) * reject - gbar * admit
        lhs[:, 0] = 1.0  # h(0) = 0 frees its column for g
        try:
            x = np.linalg.solve(lhs, np.append(gbar[:k, 0] * prices, 0.0))
        except np.linalg.LinAlgError as exc:
            raise SingularChain(f"policy evaluation failed on {k + 1} states: {exc}") from None
        g, h = x[0], np.append(0.0, x[1:])
        theta = float(lam * g)

        b = (reject[:k] - admit[:k]) @ h
        evs = [eval_m(val, bi) for bi in b]
        improved = np.array([e.u_star for e in evs])
        deltas = h[:-1] - h[1:]
        m_vals = np.array([e.m_val for e in evs] + [0.0])
        residuals = lam * (m_vals + a_below @ deltas) - theta
        defect = float(np.max(np.abs(residuals)))
        gate = 1e-9 * max(1.0, theta)
        done = (
            np.array_equal(improved, prices)
            or defect <= 64 * sys.float_info.epsilon * (k + 1) * theta
            or (g <= g_prev and defect <= gate)
        )
        prices, g_prev = improved, g
        if done:
            break
    if not defect <= gate:
        raise NoConvergence(
            f"policy iteration stopped with Bellman defect {defect:.3g} above {gate:.3g} "
            f"(theta = {theta:.9g})"
        )
    return GeneralSolveResult(
        theta_star=theta, deltas=deltas, b_vals=b, prices=prices, residuals=residuals
    )
