"""Stationary occupancy and the revenue rate for an arbitrary price vector.

Both arrival laws give a product form pi_n = pi_{n-1} r_n on the busy count.
Poisson arrivals give the birth-death ratios r_n = rho Gbar(p_{n-1}) / n,
identical whether sampled in time or at arrivals.  A renewal stream is
sampled at arrival instants; that embedded chain P climbs at most one
server per step, so censoring it to {0..n} (Grassmann, Taksar & Heyman,
Oper. Res. 1985) balances the flow across the cut below n:
r_n = P[n-1, n] / d_n, with d_n the mass row n of the censored chain sends
below n.  The revenue rate is then sum_k pi_k lambda Gbar(p_k) p_k.

`evaluate` returns theta and pi_0..pi_K as a plain array: the count as
arriving customers see it, which under Poisson arrivals is also the
time-stationary one.  _product_form normalises it, so it sums to 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .arrival import departure_matrix
from .errors import NoConvergence
from .model import SystemSpec, price_array


def _product_form(ratios: np.ndarray) -> np.ndarray:
    """Distribution with pi_n / pi_{n-1} = ratios[n-1], accumulated in log space.

    The sums run outward from the mode of a first pass, so the states that
    carry the mass get short sums and keep their digits.  A zero ratio
    gives exact zeros from there on: those states are unreachable.
    """
    with np.errstate(divide="ignore"):
        log_r = np.log(ratios)
    m = int(np.argmax(np.append(0.0, np.cumsum(log_r))))
    log_w = np.concatenate((-np.cumsum(log_r[:m][::-1])[::-1], [0.0], np.cumsum(log_r[m:])))
    w = np.exp(log_w)
    return w / w.sum()


def embedded_chain(surv: np.ndarray, gbar: np.ndarray) -> np.ndarray:
    """One-step matrix of the chain embedded at arrivals.

    From state i (busy servers seen by an arrival) the next arrival finds the
    survivors of one gap among i servers if the arrival is turned away, and
    among i + 1 if it is admitted, which happens with probability gbar[i]:
    P = (1 - gbar) S + gbar [S[1:]; 0].  The full state K admits no one, so
    gbar[K] must be zero.
    """
    admit = np.vstack((surv[1:], np.zeros(len(surv))))
    return (1.0 - gbar[:, None]) * surv + gbar[:, None] * admit


class Evaluation(NamedTuple):
    """What a price vector earns: the revenue rate theta and occupancy pi_0..pi_K."""

    theta: float
    pi: np.ndarray


def evaluate(spec: SystemSpec, prices, dep: np.ndarray | None = None) -> Evaluation:
    """Revenue rate and arrival-sampled busy-server distribution at the given prices.

    theta = sum_{k<K} pi_k lambda Gbar(p_k) p_k: each arrival pays the price
    posted for the state it finds, if admitted.  Poisson arrivals without a
    survivor matrix `dep` take the birth-death product form.  Otherwise the
    chain embedded at arrivals is censored, even for Poisson arrivals, with
    `dep` from `departure_matrix` built here if not given; that path raises
    NoConvergence unless max |pi P - pi| <= 1e-8.
    """
    k = spec.servers
    p = price_array(spec, prices)
    gbar = spec.valuation.tail(p)
    if spec.is_poisson and dep is None:
        pi = _product_form(spec.rho * gbar[:k] / np.arange(1, k + 1))
    else:
        if dep is None:
            dep = departure_matrix(spec.arrival, spec.mu, k)
        P = embedded_chain(dep, gbar)
        # the censored product form, top-down from nonnegative terms only:
        # row n of the chain on {0..n} sends row = P[n, :n] + P[n, n+1]
        # row'[:n] / d_{n+1} below n, row' being row n+1 on {0..n+1}, and
        # d_n = sum(row).  States above a zero acceptance come out exactly 0.
        down = np.empty(k + 1)  # down[n] = d_n for n >= 1
        row = P[k, :k]
        down[k] = row.sum()
        for n in range(k - 1, 0, -1):
            row = P[n, :n] + P[n, n + 1] * row[:n] / down[n + 1]
            down[n] = row.sum()
        pi = _product_form(np.diagonal(P, 1) / down[1:])
        defect = float(np.max(np.abs(pi @ P - pi)))
        if not defect <= 1e-8:
            raise NoConvergence(f"embedded chain occupancy off stationarity by {defect:.3g}")
    earned = pi[:k] * spec.arrival_rate * gbar[:k] * np.where(np.isfinite(p[:k]), p[:k], 0.0)
    return Evaluation(float(earned.sum()), pi)


def revenue_rate(spec: SystemSpec, prices, dep: np.ndarray | None = None) -> float:
    """Mean revenue per unit time at the given prices: `evaluate`'s theta."""
    return evaluate(spec, prices, dep).theta
