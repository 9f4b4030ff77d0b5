"""Renewal interval laws and the survivor statistics they induce.

The same classes describe interarrival times (rate lambda) and, in the
simulator, service times (rate mu): each is a positive random interval with
a prescribed mean.  Analytical work needs the Laplace-Stieltjes transform
phi(s) = E exp(-s U), which each law gives as log phi(s) and log(1 - phi(s))
so that neither underflows; the blocking formula needs the products

    beta_j = prod_{m=1}^{j} (1 - phi(m mu)) / phi(m mu),

which `log_beta_seq` returns as logs, since beta_j overflows for long gaps
(NoConvergence where some phi(m mu) rounds to 0 or 1); and the
arrival-sampled Markov chain needs the survivor-count law

    S[k, s] = E[ C(k,s) e^{-s mu U} (1 - e^{-mu U})^{k-s} ],

the probability that exactly s of k busy exponential servers are still busy
after one interval; the paper's departure counts are S[k, s] =
alpha_{k,k-s}.  It has a closed form for exponential intervals; the
others grow exactly, one busy server at a time, from nonnegative terms:
binomial rows in y = e^{-mu U} over the interval's atoms, or divided
differences of binomial tails over the range of y for a uniform interval.
Two structural identities are checked on every constructed matrix, and
NoConvergence is raised when they or the row sums fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from ._numeric import bisect, positive_finite, positive_int
from .errors import NoConvergence

if TYPE_CHECKING:
    from .simulator import _Stream


@dataclass(frozen=True)
class Exponential:
    """Exponential interval; a renewal stream of these is a Poisson process."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", positive_finite("rate", self.rate))

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def log_lst(self, s: float) -> tuple[float, float]:
        ph = self.rate / (self.rate + s)
        return _log(ph), (math.log1p(-ph) if ph < 1.0 else -math.inf)

    def sample(self, rng: _Stream, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, n)


@dataclass(frozen=True)
class Deterministic:
    """Point mass at 1/rate (perfectly regular intervals)."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", positive_finite("rate", self.rate))

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def log_lst(self, s: float) -> tuple[float, float]:
        x = s / self.rate
        return -x, _log(-math.expm1(-x))

    def sample(self, rng: _Stream, n: int) -> np.ndarray:
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
        return cls(0.0, 2.0 / positive_finite("rate", rate))

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def log_lst(self, s: float) -> tuple[float, float]:
        w = s * (self.hi - self.lo)
        if w == 0.0:
            return 0.0, -math.inf
        # phi = e^{-s lo} (1 - e^{-w}) / w via expm1, stable for small s
        log_phi = math.log(-math.expm1(-w) / w) - s * self.lo
        return log_phi, _log(-math.expm1(log_phi))

    def sample(self, rng: _Stream, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, n)


@dataclass(frozen=True)
class TwoPoint:
    """Two-atom interval: x1 with probability p1, else x2."""

    x1: float
    p1: float
    x2: float

    def __post_init__(self):
        if not (0 < self.x1 < math.inf and 0 < self.x2 < math.inf):
            raise ValueError(f"atoms must be positive and finite, got {self.x1} and {self.x2}")
        if not (0.0 < self.p1 < 1.0):
            raise ValueError(f"p1 must lie in (0, 1), got {self.p1}")

    @property
    def mean(self) -> float:
        return self.p1 * self.x1 + (1.0 - self.p1) * self.x2

    def log_lst(self, s: float) -> tuple[float, float]:
        # factor out the shorter atom's e^{-s x}, so the sum left never underflows
        (xa, pa), (xb, pb) = sorted(((self.x1, self.p1), (self.x2, 1.0 - self.p1)))
        log_phi = math.log(pa + pb * math.exp(-s * (xb - xa))) - s * xa
        done = -(pa * math.expm1(-s * xa) + pb * math.expm1(-s * xb))
        return log_phi, _log(done)

    def sample(self, rng: _Stream, n: int) -> np.ndarray:
        return np.where(rng.random(n) < self.p1, self.x1, self.x2)


InterarrivalDist = Union[Exponential, Deterministic, UniformInterval, TwoPoint]


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def log_beta_seq(dist: InterarrivalDist, mu: float, k: int) -> np.ndarray:
    """(log beta_0, ..., log beta_k) with beta_j = prod_{m<=j} (1 - phi(m mu)) / phi(m mu).

    Accumulated in log space so long products neither overflow nor lose
    relative precision.  NoConvergence if some phi(m mu) is 0 or 1 in
    floating point, where its log-odds are infinite.
    """
    positive_finite("mu", mu)
    out = np.empty(positive_int("k", k) + 1)
    out[0] = 0.0
    acc = 0.0
    for j in range(1, k + 1):
        log_phi, log_done = dist.log_lst(j * mu)
        step = log_done - log_phi  # log((1 - phi) / phi), finite even where phi underflows
        if not math.isfinite(step):
            raise NoConvergence(f"phi({j * mu}) = {math.exp(log_phi)} is not inside (0, 1)")
        acc += step
        out[j] = acc
    return out


def _survivors_exponential(lam: float, mu: float, k_max: int) -> np.ndarray:
    # E over Exp(lam) has a Beta-function closed form:
    # S[k, s] = C(k,s) * r * B(r + s, k - s + 1), r = lam/mu, so
    # S[k, k] = r / (r + k) and S[k, s-1] / S[k, s] = s / (r + s - 1).
    # The running product keeps each entry within a few ulps; differences of
    # log-gammas would lose digits as r grows.  It runs down from s = k.
    # r + (s - 1) keeps all of r's digits at s = 1, where (r + s) - 1 would
    # cancel them in light traffic.
    r = lam / mu
    surv = np.zeros((k_max + 1, k_max + 1))
    surv[0, 0] = 1.0
    for k in range(1, k_max + 1):
        s = np.arange(k, 0, -1)
        surv[k, k::-1] = r / (r + k) * np.append(1.0, np.cumprod(s / (r + (s - 1))))
    return surv


def _survivors_uniform(lo: float, hi: float, mu: float, k_max: int) -> np.ndarray:
    # y = e^{-mu U} has density 1 / (mu (hi - lo) y) on [a, b] = [e^{-mu hi}, e^{-mu lo}]
    # and C(k,s) y^{s-1} (1-y)^{k-s} = d/dy P(Bin(k, y) >= s) / s, so for s >= 1
    # S[k, s] = c t_k(s) / s, c = (b - a) / (mu (hi - lo)), with t_k(s) that tail's
    # divided difference over [a, b]: t_k(s) = P(Bin(k-1, b) = s-1) + a t_{k-1}(s-1)
    # + (1-a) t_{k-1}(s) by Pascal's and the product rule, all terms nonnegative.
    # Column 0 is E(1-y)^k = E(1-y)^{k-1} - S[k, 1] / k, kept >= 0 below rounding.
    a, a_done = math.exp(-mu * hi), -math.expm1(-mu * hi)
    b, b_done = math.exp(-mu * lo), -math.expm1(-mu * lo)
    c = -b * math.expm1(-mu * (hi - lo)) / (mu * (hi - lo))
    binom = np.zeros(k_max + 2)  # binom[s] = P(Bin(k-1, b) = s-1), binom[0] = 0
    binom[1] = 1.0
    t = np.zeros(k_max + 1)  # t[s] = t_k(s), t[0] = 0
    surv = np.zeros((k_max + 1, k_max + 1))
    surv[0, 0] = 1.0
    for k in range(1, k_max + 1):
        t[1 : k + 1] = binom[1 : k + 1] + a * t[:k] + a_done * t[1 : k + 1]
        surv[k, 1 : k + 1] = c * t[1 : k + 1] / np.arange(1, k + 1)
        surv[k, 0] = max(0.0, surv[k - 1, 0] - surv[k, 1] / k)
        binom[1 : k + 2] = binom[1 : k + 2] * b_done + binom[: k + 1] * b
    return surv


def _survivors_atoms(w: list[float], x: list[float], mu: float, k_max: int) -> np.ndarray:
    # rows[s, n] = C(k,s) y_n^s (1-y_n)^(k-s) by Pascal's rule, with y_n = e^{-mu x_n}
    y, done = np.exp(-mu * np.array(x)), -np.expm1(-mu * np.array(x))
    rows = np.zeros((k_max + 1, len(w)))
    rows[0] = 1.0
    surv = np.zeros((k_max + 1, k_max + 1))
    surv[0, 0] = 1.0
    for k in range(1, k_max + 1):
        rows[1 : k + 1] = rows[1 : k + 1] * done + rows[:k] * y
        rows[0] *= done
        surv[k, : k + 1] = rows[: k + 1] @ w
    return surv


def departure_matrix(dist: InterarrivalDist, mu: float, k: int) -> np.ndarray:
    """Build and validate the survivor matrix S for k servers.

    S[n, s] is the chance that s of n busy servers are still busy one
    interval later, so the paper's departure counts are S[n, s] =
    alpha_{n,n-s}; S is (k+1) x (k+1) and zero above the diagonal.  A closed
    form for exponential intervals; for the others, exact recurrences over
    nonnegative terms, one busy server at a time: divided differences of
    binomial tails for uniform intervals, binomial rows over the atoms of
    the rest.  Rows within 1e-9 of summing to one are divided by their
    sums, so each sums to one to rounding; NoConvergence otherwise, or
    when the structural identities fail beyond tolerance.
    """
    positive_finite("mu", mu)
    k = positive_int("k", k)
    if isinstance(dist, Exponential):
        surv = _survivors_exponential(dist.rate, mu, k)
    elif isinstance(dist, UniformInterval):
        surv = _survivors_uniform(dist.lo, dist.hi, mu, k)
    elif isinstance(dist, Deterministic):
        surv = _survivors_atoms([1.0], [dist.mean], mu, k)
    elif isinstance(dist, TwoPoint):
        surv = _survivors_atoms([dist.p1, 1.0 - dist.p1], [dist.x1, dist.x2], mu, k)
    else:
        raise ValueError(f"no survivor-count recipe for {type(dist).__name__}")

    rows = surv.sum(axis=1)
    if not np.max(np.abs(rows - 1.0)) <= 1e-9:  # NaN fails too
        raise NoConvergence(f"survivor rows sum to {rows}, expected 1")
    surv /= rows[:, None]
    _check_survivor_identities(surv)
    return surv


def _check_survivor_identities(surv: np.ndarray) -> None:
    # (a) one more busy server cannot raise the chance that at most j survive:
    # with cdf[i, j] = P(at most j of i survive), cdf[i+1, j] <= cdf[i, j]
    rise = np.max(np.diff(np.cumsum(surv, axis=1), axis=0))
    if not rise <= 1e-9:
        raise NoConvergence(f"survivor CDF rises by {rise:.2e} with one more busy server")
    # (b) servers finish independently, so the mean survivor count is linear
    # in the busy count with slope surv[1, 1]
    gap = np.max(np.abs(np.diff(surv @ np.arange(len(surv))) - surv[1, 1]))
    if not gap <= 1e-9:
        raise NoConvergence(f"mean survivors off linear by {gap:.2e}")


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
