"""Exception types shared across the library.

Every failure a caller can reasonably branch on gets its own class; all of
them derive from PricingError so the CLI can map "our" errors to exit code 3
(solver failure) while configuration problems map to exit code 2.
"""


class PricingError(Exception):
    """Base class for all library-specific failures."""


class ConfigError(PricingError):
    """Invalid or missing configuration value.

    Carries the offending key so the CLI can point at it.
    """

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class DegenerateTransform(PricingError):
    """Interarrival transform returned an unusable value (phi(s) outside (0, 1))."""


class QuadratureFailure(PricingError):
    """The survivor matrix failed its checks, or the gap law has no recipe for it.

    Raised when a row sums to one only within more than 1e-9, when the
    structural survivor identities fail, and for a gap law that
    `departure_matrix` cannot build.
    """


class NoFiniteMaximizer(PricingError):
    """The objective keeps improving as its argument grows; no finite maximizer.

    Raised for the surplus (u - B) * tail(u) and for the uniform-price
    revenue still climbing at the search boundary.
    """


class NoConvergence(PricingError):
    """Iterative scheme stopped short of its tolerance.

    Raised when a step budget runs out, and when a solve stops with a
    certificate (its Bellman defects) above tolerance; no vector is returned.
    """


class SingularChain(PricingError):
    """Stationary equations are singular; chain reducible or ill-conditioned."""
