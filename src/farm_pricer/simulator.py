"""Discrete-event validation of the analytical revenue and occupancy results.

Arrival-driven simulation: interarrival gaps, service durations and
valuations come in chunks from three independent counter-based streams
(draw i of a stream is the SplitMix64 finaliser of key + i * gamma, the
key hashed from seed, replication and stream), so a replication is fully
reproducible and two runs that differ only in the service law consume
identical arrival and valuation randomness.  Within a chunk only the
candidates, arrivals whose valuation clears the lowest price, go through
the heap-based event loop; every other arrival is refused in every state.
The busy-server histogram is counted with numpy after that loop, and the
results equal those of a loop over every arrival bit for bit.  Confidence
intervals are Student-t across replications; per-state counters let
callers hold the histogram bins against analytic occupancies with binomial
error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from numbers import Integral
from typing import Optional

import numpy as np

from ._numeric import positive_int, t_quantile
from .arrival import Exponential, InterarrivalDist
from .model import SystemSpec, price_array, require_law

_CHUNK = 1 << 12  # arrivals per chunk
_CHECK_SEED = 20240  # insensitivity_check's seed and replication count
_CHECK_REPS = 10
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment, 2**64 / golden ratio


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place on a uint64 array.

    Array arithmetic wraps modulo 2**64 silently; numpy scalar arithmetic
    would warn on the overflow, so keys are 1-element arrays too.
    """
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class _Stream:
    """Uniforms on (0, 1) from a counter: draw i is made from mix64(key + i * gamma).

    The key folds in every 64-bit word of the seed, then the replication
    and the stream number, through the same mixer.  A draw depends only on
    its index, so how a run of draws is split never changes them, and _seek
    can start a run at any index.  Only the top 52 bits are kept, so
    u = (bits + 1/2) 2**-52 is exact and never 0 or 1.  The three public
    methods are the ones the laws' sample(rng, n) call.
    """

    def __init__(self, seed: int, rep: int, which: int):
        words = [seed >> b & 0xFFFFFFFFFFFFFFFF for b in range(0, max(seed.bit_length(), 1), 64)]
        key = np.zeros(1, dtype=np.uint64)
        for w in (*words, rep, which):
            key = _mix64((key ^ np.uint64(w)) + _GAMMA)
        self._key = key
        self._next = 0

    def _seek(self, i: int) -> _Stream:
        self._next = i
        return self

    def random(self, n: int) -> np.ndarray:
        z = np.arange(self._next, self._next + n, dtype=np.uint64)
        self._next += n
        z *= _GAMMA
        z += self._key
        u = (_mix64(z) >> np.uint64(12)).astype(np.float64)
        u += 0.5
        u *= 2.0**-52
        return u

    def exponential(self, scale: float, n: int) -> np.ndarray:
        u = np.log(self.random(n))
        u *= -scale
        return u

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        u = self.random(n)
        u *= hi - lo
        u += lo
        return u


@dataclass(frozen=True)
class SimConfig:
    """One simulation experiment.

    service_law defaults to exponential at spec.mu; warmup_arrivals
    defaults to 10% of the horizon.  The seed is any integer >= 0; with the
    replication index it keys each replication's three private streams.
    """

    spec: SystemSpec
    prices: np.ndarray
    horizon_arrivals: int
    warmup_arrivals: Optional[int] = None
    replications: int = 10
    seed: int = 0
    service_law: Optional[InterarrivalDist] = None

    def __post_init__(self):
        positive_int("horizon_arrivals", self.horizon_arrivals)
        positive_int("replications", self.replications)
        warm = self.resolved_warmup
        for name, value in (("warmup_arrivals", warm), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if not self.horizon_arrivals > warm:
            raise ValueError(f"need horizon > warmup, got {self.horizon_arrivals} and {warm}")
        if self.service_law is not None:
            require_law("service_law", self.service_law, InterarrivalDist)

    @property
    def resolved_warmup(self) -> int:
        if self.warmup_arrivals is None:
            return self.horizon_arrivals // 10
        return self.warmup_arrivals

    @property
    def resolved_service(self) -> InterarrivalDist:
        return self.service_law or Exponential(rate=self.spec.mu)


@dataclass(frozen=True)
class SimResult:
    """Aggregated estimates; counters are pooled over replications.

    occupancy_hist[k] is the fraction of post-warmup arrivals finding k
    busy servers, k = K being blocked; accepted_frac_by_state[k] the
    fraction of those in state k < K whose valuation met the posted price
    (estimates Gbar(p_k)); rep_seen_counts has one row per replication.
    """

    revenue_rate_mean: float
    revenue_rate_ci_half: float
    occupancy_hist: np.ndarray
    accepted_frac_by_state: np.ndarray
    rep_revenue_rates: np.ndarray
    rep_seen_counts: np.ndarray
    seen_counts: np.ndarray
    accepted_counts: np.ndarray


def _run_replication(cfg: SimConfig, rep: int) -> tuple:
    """One replication: (revenue rate, arrivals seen per state, admissions per state).

    Arrivals go in chunks of at most _CHUNK.  A chunk's arrival times are
    one sequential accumulate over its gaps with the clock folded into the
    first gap, so they equal the running sum t += gap bit for bit.  An
    arrival whose valuation is below min(p_0..p_{K-1}) is refused in every
    state, so only the other arrivals, the candidates, enter the event
    loop.  Departures leave the heap lazily, at the next candidate, which
    gives each candidate the busy count a loop over every arrival would
    give it; admissions and the revenue sum (in arrival order) are
    unchanged too.  Admission n takes service draw n: each chunk draws
    one service time per candidate, starting at the first unused draw,
    and the next chunk starts after the admissions it made.

    The histogram is counted after the loop.  Arrival j finds busy the
    servers held at the chunk start, plus the chunk's admissions before j,
    minus the departures d <= t_j among both.  Times never decrease, so a
    chunk admission i with d_i <= t_j has i < j, unless its service rounds
    away (t_i + s_i == t_i).  Such a customer is gone before any later
    arrival looks, so it is left out of both counts.  The warm-up is the
    same loop over the first warm arrivals; the counters restart after it.
    """
    rng_a, rng_s, rng_v = (_Stream(int(cfg.seed), rep, which) for which in range(3))

    k = cfg.spec.servers
    prices = price_array(cfg.spec, cfg.prices).tolist()
    floor = min(prices[:k])
    horizon, warm = cfg.horizon_arrivals, cfg.resolved_warmup
    arrival, service, valuation = cfg.spec.arrival, cfg.resolved_service, cfg.spec.valuation

    heap: list[float] = []
    served = 0
    t = 0.0
    for start, stop in ((0, warm), (warm, horizon)):
        warm_end_t, revenue = t, 0.0
        seen = np.zeros(k + 1, dtype=np.int64)
        accepted = [0] * k
        for n in range(start, stop, _CHUNK):
            take = min(_CHUNK, stop - n)
            gaps = arrival.sample(rng_a, take)
            vals = valuation.sample(rng_v, take)
            gaps[0] += t
            times = np.add.accumulate(gaps)
            t = float(times[-1])
            held = np.array(heap)
            cand = np.flatnonzero(vals >= floor)
            draws = service.sample(rng_s._seek(served), len(cand))
            srv = draws.tolist()
            si = 0
            adm: list[int] = []
            for j, tj, vj in zip(cand.tolist(), times[cand].tolist(), vals[cand].tolist()):
                while heap and heap[0] <= tj:
                    heappop(heap)
                busy = len(heap)
                if busy < k and vj >= prices[busy]:
                    revenue += prices[busy]
                    accepted[busy] += 1
                    heappush(heap, tj + srv[si])
                    si += 1
                    adm.append(j)
            adm_j = np.array(adm, dtype=np.int64)
            adm_t = times[adm_j]
            deps = adm_t + draws[:si]
            served += si
            stays = deps > adm_t
            gone = np.sort(np.concatenate((held, deps[stays])))
            busy_at = (
                len(held)
                + np.searchsorted(adm_j[stays], np.arange(take))
                - np.searchsorted(gone, times, side="right")
            )
            seen += np.bincount(busy_at, minlength=k + 1)
    return revenue / (t - warm_end_t), seen.tolist(), accepted


def simulate(cfg: SimConfig) -> SimResult:
    """Run the replications in order and aggregate.

    One replication gives no spread to estimate, so its confidence
    half-width is inf.
    """
    reps = cfg.replications
    outs = [_run_replication(cfg, rep) for rep in range(reps)]

    k = cfg.spec.servers
    rates = np.array([o[0] for o in outs])
    rep_seen = np.array([o[1] for o in outs])
    seen = rep_seen.sum(axis=0)
    accepted = np.array([o[2] for o in outs]).sum(axis=0)

    mean = float(rates.mean())
    if reps > 1:
        half = float(t_quantile(reps - 1, 0.975) * rates.std(ddof=1) / math.sqrt(reps))
    else:
        half = math.inf
    acc_frac = np.where(seen[:k] > 0, accepted / np.maximum(seen[:k], 1), 0.0)
    return SimResult(
        revenue_rate_mean=mean,
        revenue_rate_ci_half=half,
        occupancy_hist=seen / seen.sum(),
        accepted_frac_by_state=acc_frac,
        rep_revenue_rates=rates,
        rep_seen_counts=rep_seen,
        seen_counts=seen,
        accepted_counts=accepted,
    )


@dataclass(frozen=True)
class InsensitivityReport:
    """Two simulations differing only in the service law, on shared randomness.

    hist_gap_sigmas[k] is the standard error of the bin-k gap estimated
    across replications; arrival states are autocorrelated within a run,
    so iid binomial error bars would be too tight here.
    """

    base: SimResult
    alt: SimResult
    max_hist_gap: float
    hist_gap_sigmas: np.ndarray
    revenue_gap: float


def insensitivity_check(
    spec: SystemSpec, prices, alt_service_law: InterarrivalDist, budget: int
) -> InsensitivityReport:
    """Compare occupancy and revenue across service laws of equal mean.

    For Poisson arrivals the stationary busy-server distribution should
    depend on the service law only through its mean, so the two histograms
    must agree up to simulation noise.  `budget` is the total number of
    arrivals, split evenly over _CHECK_REPS replications.
    """
    if not spec.is_poisson:
        raise ValueError("the service-law comparison requires Poisson arrivals")
    if abs(alt_service_law.mean - 1.0 / spec.mu) > 1e-9:
        raise ValueError(
            f"alternative service law has mean {alt_service_law.mean}, expected {1.0 / spec.mu}"
        )
    cfg = SimConfig(
        spec=spec,
        prices=np.asarray(prices, dtype=float),
        horizon_arrivals=max(budget // _CHECK_REPS, 100),
        replications=_CHECK_REPS,
        seed=_CHECK_SEED,
    )
    base = simulate(cfg)
    alt = simulate(replace(cfg, service_law=alt_service_law))
    gap = float(np.max(np.abs(base.occupancy_hist - alt.occupancy_hist)))
    h_base = base.rep_seen_counts / base.rep_seen_counts.sum(axis=1, keepdims=True)
    h_alt = alt.rep_seen_counts / alt.rep_seen_counts.sum(axis=1, keepdims=True)
    return InsensitivityReport(
        base=base,
        alt=alt,
        max_hist_gap=gap,
        hist_gap_sigmas=(h_base - h_alt).std(axis=0, ddof=1) / math.sqrt(_CHECK_REPS),
        revenue_gap=abs(base.revenue_rate_mean - alt.revenue_rate_mean),
    )
