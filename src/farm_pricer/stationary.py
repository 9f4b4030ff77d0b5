"""Stationary occupancy and the revenue rate for an arbitrary price vector.

Poisson arrivals admit the truncated birth-death closed form

    pi_k proportional to (rho^k / k!) prod_{j<k} Gbar(p_j),

identical whether sampled in time or at arrivals.  General renewal streams
are handled through the chain embedded at arrival instants, whose one-step
matrix mixes the departure-count rows with and without an admission.  The
revenue rate is then sum_k pi_k lambda Gbar(p_k) p_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrival import DepartureMatrix, departure_matrix
from .errors import SingularChain
from .model import SystemSpec, price_array
from .valuation import tail


@dataclass(frozen=True)
class OccupancyDist:
    """Distribution of the busy-server count, with its sampling view.

    view is 'arrival_sampled' (as seen by incoming customers) or
    'time_stationary'; under Poisson arrivals the two coincide.
    """

    pi: np.ndarray
    view: str

    def __post_init__(self):
        if np.any(self.pi < -1e-12) or abs(float(self.pi.sum()) - 1.0) > 1e-9:
            raise ValueError("occupancy vector must be a probability distribution")


def occupancy_poisson(spec: SystemSpec, prices) -> OccupancyDist:
    """Closed-form busy-server distribution under Poisson arrivals."""
    if not spec.is_poisson:
        raise ValueError("occupancy_poisson needs exponential interarrivals")
    p = price_array(spec, prices)
    k, rho = spec.servers, spec.rho
    w = np.zeros(k + 1)
    w[0] = 1.0
    for i in range(k):
        gbar = float(tail(spec.valuation, p[i]))
        w[i + 1] = w[i] * rho * gbar / (i + 1)
        if w[i + 1] == 0.0:
            break  # later states unreachable
        if w[i + 1] > 1e250:  # renormalize before overflow, scale cancels
            w[: i + 2] /= w[i + 1]
    pi = w / w.sum()
    return OccupancyDist(pi=pi, view="arrival_sampled")


def embedded_chain(dep: DepartureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Reject and admit one-step matrices of the chain embedded at arrivals.

    From state i (busy servers seen by an arrival) the next arrival finds j:
    reject[i, j] = alpha[i, i-j] when the arrival is turned away, and
    admit[i, j] = alpha[i+1, i+1-j] when it is admitted.  The full state K
    admits no one, so its admit row is zero.
    """
    k, alpha = dep.k, dep.alpha
    i = np.arange(k + 1)[:, None]
    j = np.arange(k + 1)[None, :]
    reject = np.where(j <= i, alpha[i, np.maximum(i - j, 0)], 0.0)
    up = np.minimum(i + 1, k)
    admit = np.where((j <= i + 1) & (i < k), alpha[up, np.clip(i + 1 - j, 0, k)], 0.0)
    return reject, admit


def occupancy_general(spec: SystemSpec, dep: DepartureMatrix, prices) -> OccupancyDist:
    """Busy-server distribution seen by arrivals under a renewal stream.

    Solves pi = pi P for the chain embedded at arrival instants.  States
    above the first zero-acceptance price are unreachable and are cut
    before the solve, then padded back with zeros.
    """
    p = price_array(spec, prices)
    k = spec.servers

    gbar = tail(spec.valuation, p)
    # no admissions in the first state with gbar = 0 (at the latest p_K = inf):
    # the chain never climbs past it
    n = int(np.flatnonzero(gbar == 0.0)[0]) + 1

    reject, admit = embedded_chain(dep)
    P = ((1.0 - gbar[:, None]) * reject + gbar[:, None] * admit)[:n, :n]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi_n = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularChain(f"embedded chain solve failed on {n} states: {exc}") from None
    if np.any(pi_n < -1e-10) or np.max(np.abs(pi_n @ P - pi_n)) > 1e-8:
        raise SingularChain("embedded chain is not irreducible on the retained states")
    pi = np.zeros(k + 1)
    pi[:n] = np.clip(pi_n, 0.0, None)
    pi /= pi.sum()
    return OccupancyDist(pi=pi, view="arrival_sampled")


def _occupancy_and_rate(
    spec: SystemSpec, prices, dep: DepartureMatrix | None = None
) -> tuple[OccupancyDist, float]:
    """Arrival-sampled occupancy and the revenue rate it earns; see revenue_rate."""
    p = price_array(spec, prices)
    if spec.is_poisson and dep is None:
        occ = occupancy_poisson(spec, p)
    else:
        if dep is None:
            dep = departure_matrix(spec.arrival, spec.mu, spec.servers)
        occ = occupancy_general(spec, dep, p)
    lam = spec.arrival_rate
    total = 0.0
    for k in range(spec.servers):
        gbar = float(tail(spec.valuation, p[k]))
        if gbar > 0.0 and math.isfinite(p[k]):
            total += occ.pi[k] * lam * gbar * p[k]
    return occ, total


def revenue_rate(spec: SystemSpec, prices, dep: DepartureMatrix | None = None) -> float:
    """Mean revenue per unit time at the given prices.

    sum_{k<K} pi_k lambda Gbar(p_k) p_k over the arrival-sampled occupancy;
    each arrival pays the price posted for the state it finds, if admitted.
    Given a departure matrix `dep`, the embedded chain is solved, even for
    Poisson arrivals; without one, Poisson arrivals use the closed form.
    """
    return _occupancy_and_rate(spec, prices, dep)[1]
