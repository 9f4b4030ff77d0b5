"""Scalar numerics on the standard library: last-float bisection, the
Student-t quantile, and the checks for numbers, counts and positive finite rates.

`t_quantile` inverts the finite-series Student-t CDF for integer degrees of
freedom (Abramowitz & Stegun 26.7.3-4).
"""

from __future__ import annotations

import math
from numbers import Integral


def as_float(value) -> float:
    """float(value), but TypeError for a bool, which float() reads as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def positive_int(name: str, value) -> int:
    """value as an int; ValueError unless it is an Integral >= 1 and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def positive_finite(name: str, value) -> float:
    """value as a float; ValueError unless it is a positive finite number, not a bool."""
    if isinstance(value, bool) or not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def bisect(below, lo: float, hi: float) -> float:
    """Where a monotone predicate switches, to the last float.

    below(x) must be true on (lo, r) and false on [r, hi) for some r.  The
    bracket is halved until lo and hi are adjacent floats, then hi is
    returned.  The ends themselves are never evaluated.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def _t_central(df: int, theta: float) -> float:
    """P(|T| < sqrt(df) tan theta) for T ~ Student-t with df degrees of freedom."""
    c2, s = math.cos(theta) ** 2, math.sin(theta)
    if df % 2 == 0:
        term = total = 1.0
        for k in range(1, df // 2):
            term *= c2 * (2 * k - 1) / (2 * k)
            total += term
        return s * total
    if df == 1:
        return 2.0 * theta / math.pi
    term = total = 1.0
    for k in range(1, (df - 1) // 2):
        term *= c2 * (2 * k) / (2 * k + 1)
        total += term
    return 2.0 / math.pi * (theta + s * math.cos(theta) * total)


def t_quantile(df: int, q: float) -> float:
    """q-quantile of Student's t with integer df >= 1 degrees of freedom.

    Bisects theta in (0, pi/2) on the central probability
    P(|T| < sqrt(df) tan theta) = |2q - 1| to the last float, then returns
    sqrt(df) tan theta with the sign of q - 1/2.
    """
    df = positive_int("df", df)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    target = abs(2.0 * q - 1.0)
    theta = bisect(lambda x: _t_central(df, x) < target, 0.0, math.pi / 2)
    return math.copysign(math.sqrt(df) * math.tan(theta), q - 0.5)
