"""Optimal state-dependent pricing under general renewal arrivals.

Sampling the system at arrival instants gives a Markov chain whose Bellman
system again telescopes into scalar recursions: with departure statistics
a_{i,j} and reward differences Delta(j) =: g_j(theta),

    g_0 = m^{-1}(theta / lambda) / alpha_{1,0},
    g_i = [ m^{-1}(theta/lambda - sum_{j<i} a_{i,j} g_j)
            - sum_{j<i} (a_{i,j} - a_{i+1,j}) g_j ] / alpha_{i+1,0},

and theta solves theta = lambda sum_{j<K} a_{K,j} g_j(theta).  Uniqueness of
that root is not guaranteed here (unlike the Poisson case), so the solver
scans a dense theta grid, refines every sign change with Brent's method,
drops candidates whose chain ran m^{-1} out of range, warns if several
survive, and returns the smallest survivor; m^{-1} is exact for every
valuation law.  Prices are u*(b_i) for the effective arguments
b_i = sum_{j<i}(a_{i,j} - a_{i+1,j}) Delta(j) + alpha_{i+1,0} Delta(i).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._numeric import brentq
from .arrival import DepartureMatrix, departure_matrix
from .errors import MultipleRoots, NoRootInBracket
from .model import SystemSpec
from .valuation import eval_m, m_inverse


@dataclass(frozen=True)
class GeneralSolveResult:
    """Solution of the arrival-sampled pricing problem.

    residuals holds the Bellman defects on the revenue-rate scale:
    lambda m(b_0) - theta, then lambda (m(b_i) + sum_{j<i} a_{i,j} Delta(j)) - theta
    for 0 < i < K, and lambda sum_{j<K} a_{K,j} Delta(j) - theta last.
    """

    theta_star: float
    deltas: np.ndarray
    b_vals: np.ndarray
    prices: np.ndarray
    residuals: np.ndarray


def _clamp_range(y: float, m0: float) -> tuple[float, bool]:
    # m^{-1} only accepts (0, m(0)]; out-of-range arguments are pinned to the
    # nearest representable value and flagged so the root finder sees the miss
    if y > m0:
        return m0, False
    if y < m0 * 1e-15:
        return m0 * 1e-15, False
    return y, True


def g_chain_general(
    spec: SystemSpec, dep: DepartureMatrix, theta: float
) -> tuple[np.ndarray, bool]:
    """Upward recursion for (g_0, ..., g_{K-1}); feasible=False if any
    m^{-1} argument had to be clamped into range."""
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    k, lam, val = spec.servers, spec.arrival_rate, spec.valuation
    m0 = eval_m(val, 0.0).m_val
    a, alpha = dep.a_cum, dep.alpha
    g = np.zeros(k)
    feasible = True
    for i in range(k):
        arg = theta / lam - float(a[i, :i] @ g[:i])
        arg, ok = _clamp_range(arg, m0)
        feasible &= ok
        correction = float((a[i, :i] - a[i + 1, :i]) @ g[:i])
        g[i] = (m_inverse(val, arg) - correction) / alpha[i + 1, 0]
    return g, feasible


def solve_general(spec: SystemSpec) -> GeneralSolveResult:
    """Find theta* and the optimal price vector for a general renewal stream.

    Scans h(theta) = theta - lambda sum a_{K,j} g_j(theta) on 1024 points of
    (0, lambda m(0)] and refines each sign change with Brent's method, all
    on the exact m^{-1} of the valuation law.
    """
    k, lam, val = spec.servers, spec.arrival_rate, spec.valuation
    dep = departure_matrix(spec.arrival, spec.mu, k)
    theta_hi = lam * eval_m(val, 0.0).m_val

    def h(theta: float) -> float:
        g, _ = g_chain_general(spec, dep, theta)
        return theta - lam * float(dep.a_cum[k, :k] @ g)

    thetas = np.linspace(0.0, theta_hi, 1025)[1:]
    hs = np.array([h(t) for t in thetas])

    roots = []
    for t1, t2, h1, h2 in zip(thetas, thetas[1:], hs, hs[1:]):
        if h1 == 0.0:
            roots.append(float(t1))
        elif h1 * h2 < 0:
            roots.append(float(brentq(h, t1, t2, xtol=1e-12, rtol=8.9e-16)))
    if hs[-1] == 0.0:
        roots.append(float(thetas[-1]))

    if not roots:
        lines = [f"  h({t:.6g}) = {v:.6g}" for t, v in zip(thetas[::128], hs[::128])]
        raise NoRootInBracket(
            "no sign change of h(theta) on (0, lambda m(0)]; "
            f"min h = {hs.min():.6g}, max h = {hs.max():.6g}; trace:\n" + "\n".join(lines)
        )
    if len(roots) > 1:
        # sign changes inside a clamped region are artifacts: m^{-1} never saw
        # its real argument there, so the closing equation did not actually
        # hold.  In light traffic these fakes appear below the true root.
        survivors = [r for r in roots if g_chain_general(spec, dep, r)[1]]
        if survivors:
            roots = survivors
        if len(roots) > 1:
            warnings.warn(
                MultipleRoots(
                    f"{len(roots)} feasible roots found at {roots}; using the smallest"
                )
            )
    root = min(roots)

    g, _ = g_chain_general(spec, dep, root)
    a, alpha = dep.a_cum, dep.alpha
    b = np.array(
        [float((a[i, :i] - a[i + 1, :i]) @ g[:i]) + alpha[i + 1, 0] * g[i] for i in range(k)]
    )
    evs = [eval_m(val, bi) for bi in b]
    prices = np.array([e.u_star for e in evs])

    residuals = np.empty(k + 1)
    for i in range(k):
        residuals[i] = lam * (evs[i].m_val + float(a[i, :i] @ g[:i])) - root
    residuals[k] = lam * float(a[k, :k] @ g) - root

    return GeneralSolveResult(
        theta_star=root, deltas=g, b_vals=b, prices=prices, residuals=residuals
    )
