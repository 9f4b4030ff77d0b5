"""Revenue-optimal admission pricing for K-server loss systems.

Renewal arrivals, exponential services, random customer valuations; solvers
for the best state-dependent and best uniform admission prices, stationary
occupancy and revenue formulas, and a discrete-event simulator that checks
the analytics.
"""

from . import mdp_poisson  # noqa: F401  (perfbench calls fp.mdp_poisson.fixed_point)
from .arrival import (
    Deterministic,
    Exponential,
    TwoPoint,
    UniformInterval,
    departure_matrix,
    log_beta_seq,
)
from .errors import ConfigError, NoConvergence, NoFiniteMaximizer, PricingError
from .mdp_general import fixed_point, solve_general, sweep, value_iteration_oracle
from .model import SolveResult, SystemSpec, price_array, spec_from_config
from .simulator import InsensitivityReport, SimConfig, SimResult, insensitivity_check, simulate
from .stationary import evaluate, revenue_rate
from .uniform_pricing import (
    UniformPricingResult,
    asymptotic_mu_tilde,
    blocking_prob,
    optimize_uniform,
    revenue_uniform,
)
from .valuation import (
    AuxEval,
    ExponentialValuation,
    ParetoValuation,
    TabulatedTail,
    UniformValuation,
    eval_m,
)

__version__ = "0.1.0"

__all__ = [
    "AuxEval",
    "ConfigError",
    "Deterministic",
    "Exponential",
    "ExponentialValuation",
    "InsensitivityReport",
    "NoConvergence",
    "NoFiniteMaximizer",
    "ParetoValuation",
    "PricingError",
    "SimConfig",
    "SimResult",
    "SolveResult",
    "SystemSpec",
    "TabulatedTail",
    "TwoPoint",
    "UniformInterval",
    "UniformPricingResult",
    "UniformValuation",
    "asymptotic_mu_tilde",
    "blocking_prob",
    "departure_matrix",
    "eval_m",
    "evaluate",
    "fixed_point",
    "insensitivity_check",
    "log_beta_seq",
    "optimize_uniform",
    "price_array",
    "revenue_rate",
    "revenue_uniform",
    "simulate",
    "solve_general",
    "spec_from_config",
    "sweep",
    "value_iteration_oracle",
]
