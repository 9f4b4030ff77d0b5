"""Exact-arithmetic oracles: exp(beta) valuations, policy iteration in Decimal.

Poisson arrivals (`policy_iteration`): policy iteration on the birth-death
chain of busy servers.  A policy is the vector B_n = h(n) - h(n+1) of shadow
costs of taking a server in state n; it posts u*(B) = B + 1/beta, which
admits at rate lambda e^{-beta B - 1}, so lambda m(B) = lambda e^{-beta B - 1}
/ beta is the surplus per unit time.

Evaluation: theta from the product-form occupancy, whose terms are all
positive, then the Bellman equations of states 0..K-1,
theta = lambda g_n (p_n - B_n) + n mu B_{n-1}, and of state K,
theta = K mu B_{K-1}, solved for the new B from both ends: upward from
state 0 below the mode of the product-form weights, downward from state K
above it.  Both run toward the mode, where the weights grow, so rounding
does not build up; the upward pass alone diverges in heavy traffic
(K=300, lambda=300).  The mode state's equation is left over as the
certificate.

Renewal arrivals (`renewal_policy_iteration`, exp(1) values): policy
iteration on the chain embedded at arrivals.  The survivor matrix S is built
here from its definition: binomial rows averaged over the gap's atoms, or,
for a gap uniform on [lo, hi], S[k, s] = (P(Bin(k, b) >= s) - P(Bin(k, a) >= s))
/ (s mu (hi - lo)) with [a, b] = [e^{-mu hi}, e^{-mu lo}] and column 0 the
rest of the row.  Evaluation solves g + h(i) - (P h)(i) = Gbar(p_i) p_i with
h(0) = 0 by Gaussian elimination; improvement posts p_i = B_i + 1 with
B_i = ((S[i] - S[i+1]) h).

Piecewise-linear tails (`piecewise_linear_m`): f(u) = (u - B) tail(u) in
`Fraction`s, which hold every float exactly, over `eval_m`'s candidates:
the knots, each falling segment's parabola top clipped into the segment,
and max(B, 0), every candidate raised to at least max(B, 0).
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction


def policy_iteration(k: int, lam: float, mu: float, beta: float = 1.0, digits: int = 60):
    """(theta*, prices) of the optimal policy, each rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = digits
        lam, mu, beta = Decimal(repr(lam)), Decimal(repr(mu)), Decimal(repr(beta))
        tol = Decimal(10) ** (-digits // 2)
        costs = [Decimal(0)] * k
        for _ in range(100):
            prices = [b + 1 / beta for b in costs]
            rates = [lam * (-beta * p).exp() for p in prices]
            weights = [Decimal(1)]
            for n in range(k):
                weights.append(weights[-1] * rates[n] / ((n + 1) * mu))
            theta = sum(w * r * p for w, r, p in zip(weights, rates, prices)) / sum(weights)
            mode = weights.index(max(weights))
            new = [Decimal(0)] * k
            for n in range(mode):  # state n's equation gives B_n
                new[n] = prices[n] - (theta - n * mu * (new[n - 1] if n else 0)) / rates[n]
            for n in reversed(range(mode, k)):  # state n + 1's equation gives B_n
                gain = rates[n + 1] * (prices[n + 1] - new[n + 1]) if n + 1 < k else 0
                new[n] = (theta - gain) / ((n + 1) * mu)
            done = max(abs(a - b) for a, b in zip(new, costs)) <= tol
            costs = new
            if done:
                gain = rates[mode] * (prices[mode] - costs[mode]) if mode < k else 0
                lost = mode * mu * costs[mode - 1] if mode else 0
                assert abs(gain + lost - theta) <= tol * theta, f"state {mode} off balance"
                return float(theta), [float(b + 1 / beta) for b in costs]
    raise AssertionError("policy iteration did not settle in 100 steps")


def _power(x, n):
    return Decimal(1) if n == 0 else x**n  # Decimal refuses 0 ** 0, and b = 1 when lo = 0


def _binomial_tail(k, s, y):
    return sum(math.comb(k, j) * _power(y, j) * _power(1 - y, k - j) for j in range(s, k + 1))


def _survivors(k, mu, atoms, interval):
    """S[n][s] for n, s = 0..k, zero above the diagonal."""
    surv = [[Decimal(0)] * (k + 1) for _ in range(k + 1)]
    if interval is None:
        for x, w in atoms:
            y = (-mu * Decimal(x)).exp()
            for n in range(k + 1):
                for s in range(n + 1):
                    surv[n][s] += Decimal(w) * math.comb(n, s) * y**s * (1 - y) ** (n - s)
        return surv
    lo, hi = (Decimal(v) for v in interval)
    a, b = (-mu * hi).exp(), (-mu * lo).exp()
    for n in range(k + 1):
        for s in range(1, n + 1):
            tails = _binomial_tail(n, s, b) - _binomial_tail(n, s, a)
            surv[n][s] = tails / (s * mu * (hi - lo))
        surv[n][0] = 1 - sum(surv[n][1:])
    return surv


def _solve(lhs, rhs):
    """Gaussian elimination with partial pivoting."""
    n = len(rhs)
    rows = [row + [r] for row, r in zip(lhs, rhs)]
    for c in range(n):
        pivot = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [v - f * u for v, u in zip(rows[r], rows[c])]
    x = [Decimal(0)] * n
    for c in reversed(range(n)):
        x[c] = (rows[c][n] - sum(rows[c][j] * x[j] for j in range(c + 1, n))) / rows[c][c]
    return x


def renewal_policy_iteration(k, lam, mu, atoms=None, interval=None, digits=50):
    """(theta*, prices) for gaps with atoms [(x, p), ...] or uniform on interval (lo, hi)."""
    with localcontext() as ctx:
        ctx.prec = digits
        lam, mu = Decimal(lam), Decimal(mu)
        surv = _survivors(k, mu, atoms, interval) + [[Decimal(0)] * (k + 1)]
        tol = Decimal(10) ** (-digits // 2)
        prices = [Decimal(1)] * k
        for _ in range(100):
            admit = [(-p).exp() for p in prices] + [Decimal(0)]
            # unknowns g, h(1), ..., h(K); P[i] = (1 - Gbar_i) S[i] + Gbar_i S[i+1]
            lhs = [
                [Decimal(1)]
                + [(i == j) - (1 - admit[i]) * surv[i][j] - admit[i] * surv[i + 1][j]
                   for j in range(1, k + 1)]
                for i in range(k + 1)
            ]
            x = _solve(lhs, [a * p for a, p in zip(admit, prices)] + [Decimal(0)])
            g, h = x[0], [Decimal(0)] + x[1:]
            new = [
                1 + sum((surv[i][j] - surv[i + 1][j]) * h[j] for j in range(k + 1))
                for i in range(k)
            ]
            done = max(abs(a - b) for a, b in zip(new, prices)) <= tol
            prices = new
            if done:
                return float(lam * g), [float(p) for p in prices]
    raise AssertionError("policy iteration did not settle in 100 steps")


def piecewise_linear_m(xs, gs, B):
    """(m(B), the candidates attaining it) for the tail through knots (xs, gs), exactly.

    f is strictly concave on a falling segment and strictly increasing on a
    flat one with a positive tail, so when m(B) > 0 the maximizer is unique
    exactly when one candidate attains m(B).
    """
    xs, gs, B = [Fraction(x) for x in xs], [Fraction(g) for g in gs], Fraction(B)

    def tail(u):  # u >= 0 here; zero past the last knot, gs[-1] on it
        if u > xs[-1]:
            return Fraction(0)
        j = max(i for i, x in enumerate(xs) if x <= u)
        if j == len(xs) - 1:
            return gs[j]
        return gs[j] + (gs[j + 1] - gs[j]) * (u - xs[j]) / (xs[j + 1] - xs[j])

    candidates = set(xs) | {max(B, 0)}
    for xl, xr, gl, gr in zip(xs, xs[1:], gs, gs[1:]):
        if gr < gl:
            zero = xl + gl * (xr - xl) / (gl - gr)  # where the segment's line meets 0
            candidates.add(min(max((B + zero) / 2, xl), xr))
    f = {u: (u - B) * tail(u) for u in {max(u, B, 0) for u in candidates}}
    m = max(f.values())
    return m, sorted(u for u, v in f.items() if v == m)
