"""Customer valuation laws and the surplus map they induce.

A customer facing price u buys iff their sampled valuation is at least u,
which happens with probability ``tail(u)``.  Solvers interact with a law
through two primitives only:

* the tail itself, and
* ``eval_m``: the maximum m(B) of f(B, u) = (u - B) * tail(u) over prices
  u, together with its smallest maximizer u*(B).

m is nonnegative, nonincreasing, convex and Lipschitz-1 in B, and u*(B) is
nondecreasing; the solvers lean on all four properties, so the test suite
checks them on random pairs for every supported law.

Each law has one exact path for ``eval_m``.  The exponential and Pareto
laws have closed forms.  A tabulated tail, which the uniform law builds, is
piecewise linear, so f is a parabola in u on each segment and the maximum is
exact per piece.

Since valuations are positive, tail(u) = 1 for u <= 0 and the maximization
is effectively over u >= 0: for very negative B the maximizer clamps to 0
and m(B) = -B.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Union

import numpy as np

from ._numeric import as_float, positive_finite
from .errors import NoFiniteMaximizer

if TYPE_CHECKING:
    from .simulator import _Stream


@dataclass(frozen=True)
class ExponentialValuation:
    """Exponential valuation with tail e^{-beta u}; mean 1/beta."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", positive_finite("beta", self.beta))

    def tail(self, u):
        return np.exp(-self.beta * np.maximum(u, 0.0))

    def tail_quantile(self, eps: float) -> float:
        """Price above which fewer than a fraction eps of customers buy."""
        return -math.log(eps) / self.beta

    def sample(self, rng: _Stream, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.beta, n)


@dataclass(frozen=True)
class ParetoValuation:
    """Pareto valuation with tail min(1, theta/u).

    u * tail(u) tends to the constant theta, so revenue per admission never
    falls off: there is no finite revenue-maximizing price whenever the
    opportunity cost B is positive, and the mean valuation is infinite.
    Useful for the scaled-price growth diagnostics, not for the MDP solvers.
    """

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", positive_finite("theta", self.theta))

    def tail(self, u):
        return np.minimum(1.0, self.theta / np.maximum(u, self.theta))

    def tail_quantile(self, eps: float) -> float:
        return self.theta / eps

    def sample(self, rng: _Stream, n: int) -> np.ndarray:
        # inverse transform: P{theta/U >= x} = theta/x for U uniform on (0,1]
        return self.theta / (1.0 - rng.random(n))


@dataclass(frozen=True)
class TabulatedTail:
    """Piecewise-linear tail through knots (x_j, g_j); zero beyond the last knot.

    The table must be finite, start at (0, 1) and be nonincreasing.  A
    positive final g value is allowed and represents an atom at the last knot.
    """

    xs: tuple
    gs: tuple

    def __post_init__(self):
        # a str, bytes or mapping would iterate as characters, ints or keys
        if any(isinstance(t, (str, bytes, Mapping)) for t in (self.xs, self.gs)):
            raise ValueError("knots must be sequences of numbers")
        xs = tuple(map(as_float, self.xs))
        gs = tuple(map(as_float, self.gs))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "gs", gs)
        if len(xs) != len(gs) or len(xs) < 2:
            raise ValueError("need >= 2 knots with matching lengths")
        if not all(map(math.isfinite, xs + gs)):
            raise ValueError("knots must be finite")
        if xs[0] != 0.0 or gs[0] != 1.0:
            raise ValueError("table must start at (0, 1)")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("x knots must be strictly increasing")
        if any(b > a for a, b in zip(gs, gs[1:])) or gs[-1] < 0.0:
            raise ValueError("tail values must be nonincreasing and nonnegative")

    def tail(self, u):
        return np.interp(u, self.xs, self.gs, left=1.0, right=0.0)

    def tail_quantile(self, eps: float) -> float:
        if eps < self.gs[-1]:
            return self.xs[-1]
        return float(np.interp(eps, self.gs[::-1], self.xs[::-1]))

    def sample(self, rng: _Stream, n: int) -> np.ndarray:
        w = rng.random(n)
        return np.interp(w, self.gs[::-1], self.xs[::-1])


def UniformValuation(lo: float, hi: float) -> TabulatedTail:
    """Valuation uniform on [lo, hi]: the tail through (0, 1), (lo, 1), (hi, 0)."""
    if not (0.0 <= lo < hi and math.isfinite(hi)):
        raise ValueError(f"need 0 <= lo < hi < inf, got [{lo}, {hi}]")
    if lo == 0.0:
        return TabulatedTail((0.0, hi), (1.0, 0.0))
    return TabulatedTail((0.0, lo, hi), (1.0, 1.0, 0.0))


ValuationDist = Union[ExponentialValuation, ParetoValuation, TabulatedTail]


class AuxEval(NamedTuple):
    """Result of maximizing f(B, u) = (u - B) * tail(u) over u."""

    u_star: float
    m_val: float


def eval_m(dist: ValuationDist, B: float) -> AuxEval:
    """Maximize (u - B) * tail(u); smallest maximizer wins ties.

    Closed forms for the exponential and Pareto kinds.  A tabulated tail
    is piecewise linear, so f is a parabola on each segment and the
    maximum sits at a knot, at a segment's parabola top (clipped into the
    segment) or at u = max(B, 0); the candidates are compared in one pass.
    """
    if not math.isfinite(B):
        raise ValueError(f"B must be finite, got {B}")
    if isinstance(dist, ExponentialValuation):
        u = max(B + 1.0 / dist.beta, 0.0)
        return AuxEval(u, (u - B) * math.exp(-dist.beta * u))
    if isinstance(dist, ParetoValuation):
        if B > 0.0:
            raise NoFiniteMaximizer(
                "Pareto tail: (u - B) * tail(u) increases toward theta for B > 0"
            )
        return AuxEval(dist.theta, dist.theta - B)
    x, g = np.asarray(dist.xs), np.asarray(dist.gs)
    # where the tail falls it is s (u - c) with slope s < 0, so f is a
    # parabola with its top at (B + c) / 2
    s = np.diff(g) / np.diff(x)
    fall = s < 0.0
    xl, xr = x[:-1][fall], x[1:][fall]
    c = xl - g[:-1][fall] / s[fall]
    tops = np.clip(0.5 * (B + c), xl, xr)
    # prices below B lose money: pull those candidates up to u = max(B, 0)
    u = np.sort(np.maximum(np.concatenate((x, tops)), max(B, 0.0)))
    f = (u - B) * dist.tail(u)
    i = int(np.argmax(f))  # argmax returns the first hit: smallest maximizer
    return AuxEval(float(u[i]), float(f[i]))
