"""`mdp_general.fixed_point` under the module name the benchmark in perfbench/ calls it by."""

from .mdp_general import fixed_point  # noqa: F401
