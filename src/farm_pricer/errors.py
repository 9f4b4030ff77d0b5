"""Exception types shared across the library.

A solve can fail in two ways a caller can act on: the problem has no finite
optimum (NoFiniteMaximizer), or the numerics could not certify an answer
(NoConvergence).  Both derive from PricingError, which the CLI maps to exit
code 3 (solver failure); ConfigError, a bad input value, maps to exit code 2.
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


class NoFiniteMaximizer(PricingError):
    """The objective keeps improving as its argument grows; no finite maximizer.

    Its one raise site is eval_m, for a Pareto tail with B > 0;
    optimize_uniform reaches it through the eval_m call at its grid end.
    """


class NoConvergence(PricingError):
    """The numerics could not certify an answer; no value is returned.

    Raised when a step budget runs out or a solve stops with its Bellman
    defects above tolerance; when an interarrival transform leaves (0, 1)
    in floating point; when a survivor matrix fails its row sums or
    structural identities; and when a policy evaluation is singular or an
    occupancy misses stationarity.
    """
