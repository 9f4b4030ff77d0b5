"""Exact-arithmetic oracle: Poisson arrivals, exp(beta) valuations, Decimal.

Policy iteration on the birth-death chain of busy servers.  A policy is the
vector B_n = h(n) - h(n+1) of shadow costs of taking a server in state n;
it posts u*(B) = B + 1/beta, which admits at rate lambda e^{-beta B - 1}, so
lambda m(B) = lambda e^{-beta B - 1} / beta is the surplus per unit time.

Evaluation: theta from the product-form occupancy, whose terms are all
positive, then the Bellman equations of states 0..K-1,
theta = lambda g_n (p_n - B_n) + n mu B_{n-1}, solved upward for the new B.
State K's equation, theta = K mu B_{K-1}, is left over as the certificate.
"""

from decimal import Decimal, localcontext


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
            new, below = [], Decimal(0)
            for n in range(k):
                below = prices[n] - (theta - n * mu * below) / rates[n]
                new.append(below)
            done = max(abs(a - b) for a, b in zip(new, costs)) <= tol
            costs = new
            if done:
                assert abs(theta - k * mu * costs[-1]) <= tol * theta, "state K off balance"
                return float(theta), [float(b + 1 / beta) for b in costs]
    raise AssertionError("policy iteration did not settle in 100 steps")
