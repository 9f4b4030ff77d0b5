"""System description shared by all solvers: servers, rates, interval and value laws."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import positive_int
from .arrival import Exponential, InterarrivalDist, arrival_from_config
from .errors import ConfigError
from .valuation import ValuationDist, valuation_from_config


@dataclass(frozen=True)
class SystemSpec:
    """A loss system: `servers` exponential(mu) servers fed by a renewal stream.

    Customers carry i.i.d. valuations; one facing admission price p enters
    iff a server is free and the valuation is at least p.
    """

    servers: int
    mu: float
    arrival: InterarrivalDist
    valuation: ValuationDist

    def __post_init__(self):
        object.__setattr__(self, "servers", positive_int("servers", self.servers))
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

    @property
    def arrival_rate(self) -> float:
        return 1.0 / self.arrival.mean

    @property
    def rho(self) -> float:
        """Offered load per server pool, lambda / mu."""
        return self.arrival_rate / self.mu

    @property
    def is_poisson(self) -> bool:
        return isinstance(self.arrival, Exponential)


def price_array(spec: SystemSpec, prices) -> np.ndarray:
    """Validate a state-dependent price vector p_0..p_{K-1} (+inf allowed, NaN and -inf not).

    Accepts length K (price at state K is implicitly +inf: full system
    blocks) or length K+1 with p_K = +inf.
    """
    p = np.asarray(prices, dtype=float)
    k = spec.servers
    if p.ndim != 1 or p.shape[0] not in (k, k + 1):
        raise ValueError(f"expected {k} or {k + 1} prices, got shape {p.shape}")
    if p.shape[0] == k + 1 and not math.isinf(p[k]):
        raise ValueError(f"price at the full state must be +inf, got {p[k]}")
    if np.any(np.isnan(p) | (p == -math.inf)):
        raise ValueError("prices must not be NaN or -inf")
    out = np.empty(k + 1)
    out[:k] = p[:k]
    out[k] = math.inf
    return out


def spec_from_config(cfg: dict) -> SystemSpec:
    """Build a SystemSpec from a JSON-style dict.

    Shape: {"servers": K, "mu": mu, "arrival": {...}, "valuation": {...}}.
    An arrival block may be replaced by {"lambda": rate} as shorthand for a
    Poisson stream.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("system", "expected an object")
    if "servers" not in cfg:
        raise ConfigError("servers", "missing")
    try:
        servers = positive_int("servers", cfg["servers"])
    except ValueError as exc:
        raise ConfigError("servers", str(exc)) from None
    try:
        mu = float(cfg["mu"])
    except KeyError:
        raise ConfigError("mu", "missing") from None
    except (TypeError, ValueError):
        raise ConfigError("mu", f"not a number: {cfg.get('mu')!r}") from None

    if "arrival" in cfg:
        arrival = arrival_from_config(cfg["arrival"])
    elif "lambda" in cfg:
        try:
            arrival = Exponential(rate=float(cfg["lambda"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError("lambda", str(exc)) from None
    else:
        raise ConfigError("arrival", "missing (give 'arrival' or 'lambda')")

    if "valuation" not in cfg:
        raise ConfigError("valuation", "missing")
    valuation = valuation_from_config(cfg["valuation"])

    try:
        return SystemSpec(servers=servers, mu=mu, arrival=arrival, valuation=valuation)
    except ValueError as exc:
        raise ConfigError("system", str(exc)) from None
