"""Scalar numerics on the standard library: Brent's root finder and the
Student-t quantile.

`brentq` follows scipy's `brentq.c` (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4) step for step, so it returns
the same float for the same function, bracket and tolerances.  `t_quantile`
inverts the finite-series Student-t CDF for integer degrees of freedom
(Abramowitz & Stegun 26.7.3-4).
"""

from __future__ import annotations

import math
import sys
from numbers import Integral

from .errors import NoConvergence

_RTOL = 4 * sys.float_info.epsilon


def brentq(
    f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL, maxiter: int = 100
) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Converged when half the bracket is below (xtol + rtol |x|) / 2.  Raises
    ValueError for a non-bracketing interval, a NaN function value or
    tolerances below scipy's floors, and NoConvergence when maxiter steps
    do not reach the tolerance.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def fx(x: float) -> float:
        y = float(f(x))
        if math.isnan(y):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return y

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise NoConvergence(f"brentq: no convergence after {maxiter} iterations, last x = {xcur!r}")


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
    if not isinstance(df, Integral) or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    target = abs(2.0 * q - 1.0)
    lo, hi = 0.0, math.pi / 2
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _t_central(df, mid) < target:
            lo = mid
        else:
            hi = mid
    return math.copysign(math.sqrt(df) * math.tan(hi), q - 0.5)
