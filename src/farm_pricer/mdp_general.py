"""Optimal state-dependent pricing under general renewal arrivals.

Sampling the system at arrival instants gives a Markov chain on the busy
count i = 0..K that an arrival finds.  An arrival offered price p is
admitted with probability Gbar(p) and pays p; admitted or not, the next
arrival finds the survivors of one interarrival period, drawn from row i
or row i + 1 of the survivor matrix S (`stationary.embedded_chain`).
Pricing is an average-reward MDP on that chain, solved by Howard's policy
iteration (Puterman, *Markov Decision Processes*, 1994, sec. 8.6).  Each
iteration

* evaluates the current prices: one dense solve of h + g = r + P h with
  h(0) = 0, where r_i = Gbar(p_i) p_i and theta = lambda g;
* improves them: p_i = u*(B_i) with B_i = E[h | reject] - E[h | admit]
  = (S[i] - S[i+1]) h, which is the exact surplus map `eval_m`.

The Bellman equations are theta = lambda (m(B_i) + (S h)_i - h(i)) for
i < K and theta = lambda ((S h)_K - h(K)).  Their defects are the solve's
certificate: it returns only when every defect is within
1e-9 max(1, theta*), and raises NoConvergence otherwise.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .arrival import departure_matrix
from .errors import NoConvergence
from .model import SolveResult, SystemSpec
from .stationary import embedded_chain
from .valuation import eval_m

# Random specs took at most 6 iterations at K <= 40, load <= 5, and 13 at
# K <= 200, load <= 100; the cap only ends a solve that cannot certify.
_MAX_ITERATIONS = 50


def solve_general(spec: SystemSpec) -> SolveResult:
    """Find theta* and the optimal price vector for a general renewal stream.

    Policy iteration from the myopic prices u*(0).  It stops when the prices
    repeat, when the Bellman defects reach the rounding floor
    64 eps (K+1) theta, or when g stopped rising with the defects already
    within the certificate 1e-9 max(1, theta).  Raises NoConvergence if the
    certificate does not hold when it stops, or a policy evaluation is singular.

    deltas are the arguments B_i, with prices = u*(deltas), and iterations
    counts the policy-iteration passes.  residuals are lambda (m(B_i) + (S h)_i -
    h(i)) - theta for i < K and lambda ((S h)_K - h(K)) - theta last, with S
    the survivor matrix and h(0) = 0.  Where they vanish, the chain's own
    differences follow from deltas: h(i) - h(i+1) = B_i + m(B_i) - m(B_{i+1}),
    with m = 0 at the full state.
    """
    k, lam, val = spec.servers, spec.arrival_rate, spec.valuation
    surv = departure_matrix(spec.arrival, spec.mu, k)
    prices = np.full(k, eval_m(val, 0.0).u_star)
    g_prev = -math.inf
    for iterations in range(1, _MAX_ITERATIONS + 1):
        gbar = np.append(val.tail(prices), 0.0)
        lhs = np.eye(k + 1) - embedded_chain(surv, gbar)
        lhs[:, 0] = 1.0  # h(0) = 0 frees its column for g
        try:
            x = np.linalg.solve(lhs, np.append(gbar[:k] * prices, 0.0))
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"policy evaluation failed on {k + 1} states: {exc}") from None
        g, h = x[0], np.append(0.0, x[1:])
        theta = float(lam * g)

        b = (surv[:k] - surv[1:]) @ h
        evs = [eval_m(val, bi) for bi in b]
        improved = np.array([e.u_star for e in evs])
        m_vals = np.array([e.m_val for e in evs] + [0.0])
        residuals = lam * (m_vals + surv @ h - h) - theta
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
    return SolveResult(theta, b, prices, residuals, iterations)
