"""Discrete-event validation of the analytical revenue and occupancy results.

Arrival-driven event loop: interarrival gaps, service durations and
valuations are pre-sampled in chunks from three independent counter-based
streams (Philox via numpy SeedSequence spawning), so a replication is fully
reproducible and two runs that differ only in the service law consume
identical arrival and valuation randomness.  Confidence intervals are
Student-t across replications; per-state counters let callers hold the
histogram bins against analytic occupancies with binomial error bars.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Optional, Union

import numpy as np

from ._numeric import t_quantile
from .arrival import Deterministic, Exponential, UniformInterval
from .model import SystemSpec, price_array

ServiceLaw = Union[Exponential, Deterministic, UniformInterval]

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """One simulation experiment.

    service_law defaults to exponential at spec.mu; warmup_arrivals
    defaults to 10% of the horizon.  The seed feeds a SeedSequence whose
    spawns give each replication three private substreams.
    """

    spec: SystemSpec
    prices: np.ndarray
    horizon_arrivals: int
    warmup_arrivals: Optional[int] = None
    replications: int = 10
    seed: int = 0
    service_law: Optional[ServiceLaw] = None

    def __post_init__(self):
        warm = self.resolved_warmup
        if not (self.horizon_arrivals > warm >= 0):
            raise ValueError(
                f"need horizon > warmup >= 0, got {self.horizon_arrivals} and {warm}"
            )
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")

    @property
    def resolved_warmup(self) -> int:
        if self.warmup_arrivals is None:
            return self.horizon_arrivals // 10
        return self.warmup_arrivals

    @property
    def resolved_service(self) -> ServiceLaw:
        return self.service_law or Exponential(rate=self.spec.mu)


@dataclass(frozen=True)
class SimResult:
    """Aggregated estimates; counters are pooled over replications.

    occupancy_hist[k] is the fraction of post-warmup arrivals finding k
    busy servers; accepted_frac_by_state[k] the fraction of those in state
    k < K whose valuation met the posted price (estimates Gbar(p_k)).
    """

    revenue_rate_mean: float
    revenue_rate_ci_half: float
    blocking_frac: float
    occupancy_hist: np.ndarray
    accepted_frac_by_state: np.ndarray
    rep_revenue_rates: np.ndarray
    rep_blocking_fracs: np.ndarray
    rep_seen_counts: np.ndarray
    seen_counts: np.ndarray
    accepted_counts: np.ndarray


def _run_replication(cfg: SimConfig, entropy) -> tuple:
    ss_arr, ss_srv, ss_val = entropy.spawn(3)
    rng_a = np.random.Generator(np.random.Philox(ss_arr))
    rng_s = np.random.Generator(np.random.Philox(ss_srv))
    rng_v = np.random.Generator(np.random.Philox(ss_val))

    k = cfg.spec.servers
    prices = price_array(cfg.spec, cfg.prices).tolist()
    horizon, warm = cfg.horizon_arrivals, cfg.resolved_warmup
    arrival, service, valuation = cfg.spec.arrival, cfg.resolved_service, cfg.spec.valuation

    heap: list[float] = []
    busy = 0
    t = 0.0
    warm_end_t = 0.0
    revenue = 0.0
    seen = [0] * (k + 1)
    accepted = [0] * k
    srv_buf = service.sample(rng_s, _CHUNK).tolist()
    si = 0
    n = 0
    while n < horizon:
        take = min(_CHUNK, horizon - n)
        gaps = arrival.sample(rng_a, take).tolist()
        vals = valuation.sample(rng_v, take).tolist()
        for j in range(take):
            t += gaps[j]
            while heap and heap[0] <= t:
                heappop(heap)
                busy -= 1
            counted = n >= warm
            if counted:
                seen[busy] += 1
            if busy < k and vals[j] >= prices[busy]:
                if counted:
                    revenue += prices[busy]
                    accepted[busy] += 1
                if si == len(srv_buf):
                    srv_buf = service.sample(rng_s, _CHUNK).tolist()
                    si = 0
                heappush(heap, t + srv_buf[si])
                si += 1
                busy += 1
            n += 1
            if n == warm:
                warm_end_t = t
    return revenue / (t - warm_end_t), seen, accepted


def simulate(cfg: SimConfig) -> SimResult:
    """Run all replications and aggregate.

    Replications are farmed out to processes when FARM_PRICER_THREADS asks
    for more than one worker; aggregation order is fixed by replication
    index either way, so results are bit-identical for a given seed.
    """
    reps = cfg.replications
    streams = np.random.SeedSequence(cfg.seed).spawn(reps)
    workers = int(os.environ.get("FARM_PRICER_THREADS", "1"))
    if workers > 1 and reps > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, reps)) as pool:
            outs = list(pool.map(_run_replication, [cfg] * reps, streams))
    else:
        outs = [_run_replication(cfg, s) for s in streams]

    k = cfg.spec.servers
    rates = np.array([o[0] for o in outs])
    rep_seen = np.array([o[1] for o in outs])
    seen = rep_seen.sum(axis=0)
    accepted = np.array([o[2] for o in outs]).sum(axis=0)
    rep_block = np.array([o[1][k] / sum(o[1]) for o in outs])

    mean = float(rates.mean())
    if reps > 1:
        half = float(t_quantile(reps - 1, 0.975) * rates.std(ddof=1) / math.sqrt(reps))
    else:
        half = 0.0
    total_seen = int(seen.sum())
    acc_frac = np.where(seen[:k] > 0, accepted / np.maximum(seen[:k], 1), 0.0)
    return SimResult(
        revenue_rate_mean=mean,
        revenue_rate_ci_half=half,
        blocking_frac=float(seen[k]) / total_seen,
        occupancy_hist=seen / total_seen,
        accepted_frac_by_state=acc_frac,
        rep_revenue_rates=rates,
        rep_blocking_fracs=rep_block,
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
    spec: SystemSpec,
    prices,
    alt_service_law: ServiceLaw,
    budget: int,
    seed: int = 20240,
    replications: int = 10,
) -> InsensitivityReport:
    """Compare occupancy and revenue across service laws of equal mean.

    For Poisson arrivals the stationary busy-server distribution should
    depend on the service law only through its mean, so the two histograms
    must agree up to simulation noise.  `budget` is the total number of
    arrivals, split evenly over replications.
    """
    if not spec.is_poisson:
        raise ValueError("the service-law comparison requires Poisson arrivals")
    if abs(alt_service_law.mean - 1.0 / spec.mu) > 1e-9:
        raise ValueError(
            f"alternative service law has mean {alt_service_law.mean}, expected {1.0 / spec.mu}"
        )
    horizon = max(budget // replications, 100)
    cfg = SimConfig(
        spec=spec,
        prices=np.asarray(prices, dtype=float),
        horizon_arrivals=horizon,
        replications=replications,
        seed=seed,
    )
    base = simulate(cfg)
    alt = simulate(replace(cfg, service_law=alt_service_law))
    gap = float(np.max(np.abs(base.occupancy_hist - alt.occupancy_hist)))
    h_base = base.rep_seen_counts / base.rep_seen_counts.sum(axis=1, keepdims=True)
    h_alt = alt.rep_seen_counts / alt.rep_seen_counts.sum(axis=1, keepdims=True)
    diffs = h_base - h_alt
    if replications > 1:
        sigmas = diffs.std(axis=0, ddof=1) / math.sqrt(replications)
    else:
        sigmas = np.full(diffs.shape[1], math.inf)
    return InsensitivityReport(
        base=base,
        alt=alt,
        max_hist_gap=gap,
        hist_gap_sigmas=sigmas,
        revenue_gap=abs(base.revenue_rate_mean - alt.revenue_rate_mean),
    )
