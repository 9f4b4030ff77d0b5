"""System description and result record shared by all solvers: servers, rates, laws, optimum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import get_args

import numpy as np

from ._numeric import as_float, positive_finite, positive_int
from .arrival import Deterministic, Exponential, InterarrivalDist, TwoPoint, UniformInterval
from .errors import ConfigError
from .valuation import ExponentialValuation, ParetoValuation, TabulatedTail, UniformValuation
from .valuation import ValuationDist


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
        object.__setattr__(self, "mu", positive_finite("mu", self.mu))
        require_law("arrival", self.arrival, InterarrivalDist)
        require_law("valuation", self.valuation, ValuationDist)

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


@dataclass(frozen=True)
class SolveResult:
    """An optimal state-dependent pricing, from `fixed_point` or `solve_general`.

    The arrival law's step builds it from the returned prices p, so
    theta_star, deltas and residuals describe them: theta_star is their
    revenue rate, deltas[i] their opportunity cost Delta(i) of admitting in
    state i, and residuals[i] = lambda (m(Delta(i)) - Gbar(p_i) (p_i -
    Delta(i))) their Bellman defect, the revenue rate that re-pricing state
    i at u*(Delta(i)) would add.  The full state K comes last, where it is
    0; all are >= 0 up to rounding.  Each law computes them in its Bellman
    operator's form, which bounds theta* for any Delta, where the form
    above does so only in exact arithmetic: hence two formulas.
    iterations counts policy-iteration passes.
    """

    theta_star: float
    deltas: np.ndarray
    prices: np.ndarray
    residuals: np.ndarray
    iterations: int


def require_law(name: str, law, family) -> None:
    """Raise ValueError naming `name` unless `law` is one of the classes in `family`."""
    kinds = get_args(family)
    if not isinstance(law, kinds):
        names = ", ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{name} must be one of {names}, got {law!r}")


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


# Every law a config object or a flag can name: (kinds, constructor, parameters).
# A kind with two forms takes the first whose parameters the object gives,
# else its last.  Parameters are numbers, but for the tabulated knot lists,
# which only a config object can give.
_LISTS = ("xs", "gs")
_LAWS = {
    "arrival": (
        (("exp", "exponential", "poisson"), Exponential, ("rate",)),
        (("det", "deterministic", "constant"), Deterministic, ("rate",)),
        (("uniform",), UniformInterval, ("lo", "hi")),
        (("uniform",), UniformInterval.from_rate, ("rate",)),
        (("two_point",), TwoPoint, ("x1", "p1", "x2")),
    ),
    "valuation": (
        (("exp", "exponential"), ExponentialValuation, ("beta",)),
        (("pareto",), ParetoValuation, ("theta",)),
        (("uniform",), UniformValuation, ("lo", "hi")),
        (("tabulated", "table"), TabulatedTail, _LISTS),
    ),
}


def law_from_config(family: str, cfg, key: str | None = None):
    """An 'arrival' or 'valuation' law from {"kind": name, parameter: value, ...}.

    Kinds match case-insensitively; problems are ConfigErrors under `key`
    (default: the family).
    """
    key = key or family
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(key, "expected an object with a 'kind' field")
    kind = str(cfg["kind"]).lower()
    forms = [(build, ps) for kinds, build, ps in _LAWS[family] if kind in kinds]
    if not forms:
        raise ConfigError(f"{key}.kind", f"unknown {family} kind '{cfg['kind']}'")
    build, params = next((f for f in forms if any(p in cfg for p in f[1])), forms[-1])
    try:
        return build(*(cfg[p] if p in _LISTS else as_float(cfg[p]) for p in params))
    except KeyError as exc:
        raise ConfigError(f"{key}.{exc.args[0]}", "missing parameter") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from None


def config_from_shorthand(family: str, text: str, key: str | None = None) -> dict:
    """'exp:1', 'uniform:0:2', 'two_point:1:0.5:2' -> the object law_from_config reads."""
    key = key or family
    kind, *params = text.split(":")
    try:
        nums = [float(x) for x in params]
    except ValueError:
        raise ConfigError(key, f"non-numeric parameter in '{text}'") from None
    for kinds, _, ps in _LAWS[family]:
        if kind.lower() in kinds and len(ps) == len(nums) and ps != _LISTS:
            return {"kind": kind, **dict(zip(ps, nums))}
    raise ConfigError(key, f"cannot parse '{text}'; use {shorthand_usage(family)}")


def shorthand_usage(family: str) -> str:
    """The kind:p1:p2 forms a flag can give, aliases joined by '|'."""
    forms = (("|".join(kinds), *ps) for kinds, _, ps in _LAWS[family] if ps != _LISTS)
    return ", ".join(map(":".join, forms))


def spec_from_config(cfg: dict) -> SystemSpec:
    """Build a SystemSpec from a JSON-style dict.

    Shape: {"servers": K, "mu": mu, "arrival": {...}, "valuation": {...}},
    each law an object law_from_config reads.  An arrival block may be
    replaced by {"lambda": rate} as shorthand for a Poisson stream.  A
    missing or bad value is a ConfigError under its own key.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("system", "expected an object")
    servers = _checked(cfg, "servers", positive_int)
    mu = _checked(cfg, "mu", lambda key, value: positive_finite(key, as_float(value)))

    if "arrival" in cfg:
        arrival = law_from_config("arrival", cfg["arrival"])
    elif "lambda" in cfg:
        arrival = law_from_config("arrival", {"kind": "exp", "rate": cfg["lambda"]}, "lambda")
    else:
        raise ConfigError("arrival", "missing (give 'arrival' or 'lambda')")

    if "valuation" not in cfg:
        raise ConfigError("valuation", "missing")
    valuation = law_from_config("valuation", cfg["valuation"])
    return SystemSpec(servers=servers, mu=mu, arrival=arrival, valuation=valuation)


def _checked(cfg: dict, key: str, check):
    """check(key, cfg[key]); a missing or rejected value is a ConfigError under `key`."""
    if key not in cfg:
        raise ConfigError(key, "missing")
    try:
        return check(key, cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from None
