"""Renewal interval laws and the departure statistics they induce.

The same classes describe interarrival times (rate lambda) and, in the
simulator, service times (rate mu): each is a positive random interval with
a prescribed mean.  Analytical work needs the Laplace-Stieltjes transform
phi(s) = E exp(-s U); the blocking formula needs the products

    beta_j = prod_{m=1}^{j} (1 - phi(m mu)) / phi(m mu),

and the arrival-sampled Markov chain needs the departure-count law

    alpha_{k,i} = E[ C(k,i) (1 - e^{-mu U})^i e^{-(k-i) mu U} ],

the probability that exactly i of k busy exponential servers finish within
one interval.  It has a closed form for exponential intervals; every other
law is written as weighted atoms in y = e^{-mu U}, and alpha is the mixture
of their binomial rows, grown one busy server at a time by Pascal's rule.
Two structural identities are checked on every constructed matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._numeric import bisect
from .errors import ConfigError, DegenerateTransform, QuadratureFailure


@dataclass(frozen=True)
class Exponential:
    """Exponential interval; a renewal stream of these is a Poisson process."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def lst(self, s: float) -> float:
        return self.rate / (self.rate + s)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, n)


@dataclass(frozen=True)
class Deterministic:
    """Point mass at 1/rate (perfectly regular intervals)."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def lst(self, s: float) -> float:
        return math.exp(-s / self.rate)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, 1.0 / self.rate)


@dataclass(frozen=True)
class UniformInterval:
    """Interval uniform on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi and math.isfinite(self.hi)):
            raise ValueError(f"need 0 <= lo < hi < inf, got [{self.lo}, {self.hi}]")

    @classmethod
    def from_rate(cls, rate: float) -> "UniformInterval":
        """Symmetric-about-the-mean convention: U[0, 2/rate]."""
        return cls(0.0, 2.0 / rate)

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def rate(self) -> float:
        return 1.0 / self.mean

    def lst(self, s: float) -> float:
        if s == 0.0:
            return 1.0
        w = s * (self.hi - self.lo)
        # exp(-s lo) - exp(-s hi) via expm1, stable for small s
        return -math.exp(-s * self.lo) * math.expm1(-w) / w

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, n)


@dataclass(frozen=True)
class TwoPoint:
    """Two-atom interval: x1 with probability p1, else x2."""

    x1: float
    p1: float
    x2: float

    def __post_init__(self):
        if not (self.x1 > 0 and self.x2 > 0):
            raise ValueError("atoms must be positive")
        if not (0.0 < self.p1 < 1.0):
            raise ValueError(f"p1 must lie in (0, 1), got {self.p1}")

    @property
    def mean(self) -> float:
        return self.p1 * self.x1 + (1.0 - self.p1) * self.x2

    @property
    def rate(self) -> float:
        return 1.0 / self.mean

    def lst(self, s: float) -> float:
        return self.p1 * math.exp(-s * self.x1) + (1.0 - self.p1) * math.exp(-s * self.x2)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.where(rng.random(n) < self.p1, self.x1, self.x2)


InterarrivalDist = Union[Exponential, Deterministic, UniformInterval, TwoPoint]


def lst(dist: InterarrivalDist, s: float) -> float:
    """E[exp(-s U)], with a defensive range check."""
    if s < 0:
        raise ValueError(f"transform argument must be >= 0, got {s}")
    value = dist.lst(s)
    if not (0.0 < value <= 1.0):
        raise DegenerateTransform(f"phi({s}) = {value} outside (0, 1]")
    return value


def _log_beta_seq(dist: InterarrivalDist, mu: float, k: int) -> np.ndarray:
    out = np.empty(k + 1)
    out[0] = 0.0
    acc = 0.0
    for j in range(1, k + 1):
        ph = dist.lst(j * mu)
        if not (0.0 < ph < 1.0):
            raise DegenerateTransform(
                f"phi({j * mu}) = {ph}; beta products need phi strictly inside (0, 1)"
            )
        acc += math.log1p(-ph) - math.log(ph)
        out[j] = acc
    return out


def beta_seq(dist: InterarrivalDist, mu: float, k: int) -> np.ndarray:
    """(beta_0, ..., beta_k) with beta_j = prod_{m<=j} (1 - phi(m mu)) / phi(m mu).

    Accumulated in log space so long products neither underflow nor lose
    relative precision.
    """
    if not (mu > 0 and k >= 1):
        raise ValueError(f"need mu > 0 and k >= 1, got mu={mu}, k={k}")
    return np.exp(_log_beta_seq(dist, mu, k))


@dataclass(frozen=True)
class DepartureMatrix:
    """Departure-count probabilities for k busy servers.

    alpha[k, i] is the chance that i of k busy servers finish within one
    interarrival period.  It is (K+1) x (K+1); entries with column index
    above the row index are zero.
    """

    k: int
    mu: float
    alpha: np.ndarray


def _alpha_exponential(lam: float, mu: float, k_max: int) -> np.ndarray:
    # E over Exp(lam) has a Beta-function closed form:
    # alpha_{k,i} = C(k,i) * r * B(r + k - i, i + 1), r = lam/mu, so
    # alpha_{k,0} = r / (r + k) and alpha_{k,i} / alpha_{k,i-1} = (k-i+1) / (r+k-i).
    # The running product keeps each entry within a few ulps; differences of
    # log-gammas would lose digits as r grows.
    r = lam / mu
    alpha = np.zeros((k_max + 1, k_max + 1))
    alpha[0, 0] = 1.0
    for k in range(1, k_max + 1):
        i = np.arange(1, k + 1)
        alpha[k, 0] = r / (r + k)
        alpha[k, 1 : k + 1] = alpha[k, 0] * np.cumprod((k - i + 1) / (r + k - i))
    return alpha


def _gap_atoms(dist: InterarrivalDist, mu: float, k_max: int) -> tuple[np.ndarray, ...]:
    """Weights w_n, y_n and 1 - y_n of atoms in y = e^{-mu U} that reproduce alpha up to row k_max.

    Differences near 1 go through expm1 and keep their digits in heavy traffic.
    """
    if isinstance(dist, UniformInterval):
        # y has density 1 / (mu (hi - lo) y) on [e^{-mu hi}, e^{-mu lo}], so for
        # i < k alpha_{k,i} integrates the polynomial C(k,i) (1-y)^i y^{k-i-1} of
        # degree k - 1, which floor(K/2) + 2 Gauss-Legendre nodes do exactly.  The
        # rule is not exact for the 1/y of alpha_{k,k}; an atom at y = 0 (every
        # busy server finishes) carries the mass 1 - sum w it misses, so the rule
        # is exact for every polynomial of degree <= K.
        y_lo, y_hi = math.exp(-mu * dist.hi), math.exp(-mu * dist.lo)
        nodes, weights = np.polynomial.legendre.leggauss(k_max // 2 + 2)
        half = -0.5 * y_hi * math.expm1(-mu * (dist.hi - dist.lo))
        y = y_lo + half * (nodes + 1.0)
        done = -math.expm1(-mu * dist.lo) + half * (1.0 - nodes)
        w = half * weights / (mu * (dist.hi - dist.lo) * y)
        return np.append(w, 1.0 - w.sum()), np.append(y, 0.0), np.append(done, 1.0)
    if isinstance(dist, Deterministic):
        w, x = np.array([1.0]), np.array([dist.mean])
    elif isinstance(dist, TwoPoint):
        w, x = np.array([dist.p1, 1.0 - dist.p1]), np.array([dist.x1, dist.x2])
    else:
        raise QuadratureFailure(f"no departure-count recipe for {type(dist).__name__}")
    return w, np.exp(-mu * x), -np.expm1(-mu * x)


def _alpha_mixture(weights: np.ndarray, y: np.ndarray, done: np.ndarray, k_max: int) -> np.ndarray:
    # rows[i, n] = C(k,i) done_n^i y_n^(k-i), atom n's binomial row, grows by
    # Pascal's rule from nonnegative terms; the clamp drops the y = 0 atom's
    # cancelling sum where it rounds below 0 in heavy traffic.
    rows = np.zeros((k_max + 1, len(weights)))
    rows[0] = 1.0
    alpha = np.zeros((k_max + 1, k_max + 1))
    alpha[0, 0] = 1.0
    for k in range(1, k_max + 1):
        rows[1 : k + 1] = rows[1 : k + 1] * y + rows[:k] * done
        rows[0] *= y
        alpha[k, : k + 1] = np.maximum(0.0, rows[: k + 1] @ weights)
    return alpha


def departure_matrix(dist: InterarrivalDist, mu: float, k: int) -> DepartureMatrix:
    """Build and validate the departure-count matrix for k servers.

    A closed form for exponential intervals; for every other law, a mixture
    of binomial rows over atoms in y = e^{-mu U} (the interval's own atoms,
    or an exact Gauss-Legendre rule for uniform ones), built row by row with
    Pascal's rule.  Rows within 1e-9 of summing to one are divided by their
    sums, so each sums to one to rounding; QuadratureFailure otherwise, or
    when the structural identities fail beyond tolerance.
    """
    if not (k >= 1 and mu > 0):
        raise ValueError(f"need k >= 1 and mu > 0, got k={k}, mu={mu}")
    if isinstance(dist, Exponential):
        alpha = _alpha_exponential(dist.rate, mu, k)
    else:
        alpha = _alpha_mixture(*_gap_atoms(dist, mu, k), k)

    rows = alpha.sum(axis=1)
    if not np.max(np.abs(rows - 1.0)) <= 1e-9:  # NaN fails too
        raise QuadratureFailure(f"alpha rows sum to {rows}, expected 1")
    alpha /= rows[:, None]
    _check_survivor_identities(alpha)
    return DepartureMatrix(k=k, mu=mu, alpha=alpha)


def _check_survivor_identities(alpha: np.ndarray) -> None:
    # (a) one more busy server cannot raise the chance that at most j survive:
    # with tails[i, m] = P(at least m of i finish) = P(at most i - m survive),
    # tails[i+1, m+1] <= tails[i, m]
    tails = np.cumsum(alpha[:, ::-1], axis=1)[:, ::-1]
    rise = np.max(tails[2:, 2:] - tails[1:-1, 1:-1], initial=0.0)
    if not rise <= 1e-9:
        raise QuadratureFailure(f"departure tails rise by {rise:.2e} with one more busy server")
    # (b) servers finish independently, so the mean departure count is linear
    # in the busy count with slope alpha[1, 1]
    gap = np.max(np.abs(np.diff(alpha @ np.arange(len(alpha))) - alpha[1, 1]))
    if not gap <= 1e-9:
        raise QuadratureFailure(f"mean departures off linear by {gap:.2e}")


def arrival_from_config(cfg: dict) -> InterarrivalDist:
    """Build an interval law from its JSON description."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("arrival", "expected an object with a 'kind' field")
    kind = cfg["kind"]
    try:
        if kind in ("exponential", "exp", "poisson"):
            return Exponential(rate=float(cfg["rate"]))
        if kind in ("deterministic", "constant"):
            return Deterministic(rate=float(cfg["rate"]))
        if kind == "uniform":
            if "lo" in cfg or "hi" in cfg:
                return UniformInterval(lo=float(cfg["lo"]), hi=float(cfg["hi"]))
            return UniformInterval.from_rate(float(cfg["rate"]))
        if kind == "two_point":
            return TwoPoint(x1=float(cfg["x1"]), p1=float(cfg["p1"]), x2=float(cfg["x2"]))
    except KeyError as exc:
        raise ConfigError(f"arrival.{exc.args[0]}", "missing parameter") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError("arrival", str(exc)) from None
    raise ConfigError("arrival.kind", f"unknown arrival kind '{kind}'")


def rare_long_gap_family(rate: float) -> TwoPoint:
    """Two-point interarrival law whose throughput potential collapses.

    Atoms sqrt(m) (probability 1/m) and 1/m, with m chosen so the mean is
    1/rate.  As the rate grows the rare long gap grows too, and
    rate * (1 - phi(mu)) tends to zero.
    """
    if rate <= 1.0:
        raise ValueError(f"family defined for rate > 1, got {rate}")

    def mean_gap(m):
        return 1.0 / math.sqrt(m) + (1.0 / m) * (1.0 - 1.0 / m) - 1.0 / rate

    # with x = m^{-1/2} the mean is x + x^2 - x^4, which crosses 1/rate < 1
    # once on (0, 1), so mean_gap > 0 holds exactly below the root
    m = bisect(lambda m: mean_gap(m) > 0.0, 1.0 + 1e-9, max(1e18, 16.0 * rate**2))
    return TwoPoint(x1=math.sqrt(m), p1=1.0 / m, x2=1.0 / m)


def rare_unit_gap_family(rate: float) -> TwoPoint:
    """Two-point interarrival law with a rare fixed gap of length one.

    Atoms 1 (probability 1/m) and 1/m, with m = rate + sqrt(rate^2 - rate)
    so the mean is exactly 1/rate.  rate * (1 - phi(mu)) tends to
    (1 + mu - e^{-mu}) / 2.  Every gap lies in [0, 1], where
    1 - e^{-mu x} >= x (1 - e^{-mu}) by concavity, so at every rate the value
    is at least 1 - e^{-mu}.
    """
    if rate <= 1.0:
        raise ValueError(f"family defined for rate > 1, got {rate}")
    m = rate + math.sqrt(rate * rate - rate)
    return TwoPoint(x1=1.0, p1=1.0 / m, x2=1.0 / m)
