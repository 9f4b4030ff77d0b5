"""Public names and the import budget: no library or CLI path loads any
scipy module, building survivor matrices (uniform gaps too) loads no
numpy.polynomial module, the simulator loads no numpy.random module, and
`import farm_pricer` loads no front-end module.

The budget cases run in a fresh interpreter, because this test process may
already hold those modules from other tests.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import farm_pricer
import farm_pricer.cli

NUMPY_ONLY_PATH = """
import json, sys, tempfile
from pathlib import Path

import farm_pricer as fp
from farm_pricer import cli

spec = fp.SystemSpec(5, 2.0, fp.Exponential(rate=25.0), fp.ExponentialValuation(beta=1.0))
res = fp.fixed_point(spec)
assert abs(fp.revenue_rate(spec, res.prices) - res.theta_star) < 1e-9
uni = fp.optimize_uniform(spec.arrival, spec.valuation, spec.mu, spec.servers)
assert uni.revenue_K <= res.theta_star <= uni.gap_upper
for dist in (
    fp.Exponential(rate=25.0),
    fp.Deterministic(rate=25.0),
    fp.UniformInterval.from_rate(25.0),
    fp.TwoPoint(x1=0.1, p1=0.3, x2=0.02),
):
    fp.departure_matrix(dist, 2.0, 5)
assert "numpy.polynomial" not in sys.modules

base = ["--k", "5", "--lambda", "25", "--mu", "2", "--valuation", "exp:1"]
out = Path(tempfile.mkdtemp())
for argv in (
    ["solve-poisson", *base],
    ["uniform", *base],
    ["evaluate", *base, "--prices", ",".join(str(p) for p in res.prices)],
    ["figure", "--id", "rev-vs-k"],
):
    assert cli.run([*argv, "--out", str(out / "out")]) == 0, argv
"""

SCIPY_LOADED = """
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _run(code: str) -> list:
    src = str(Path(farm_pricer.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_public_names_resolve_and_removed_names_are_gone():
    for name in farm_pricer.__all__:
        assert hasattr(farm_pricer, name), name
    # the upward recursion, its m^{-1}, the error only m^{-1} raised, the
    # bisection's crossed-bracket error, which no bracket update can trigger,
    # an alias of NoFiniteMaximizer, the unknown-figure error (a ConfigError),
    # the library's figure module and writer (figures are the CLI's), three
    # solver failures folded into NoConvergence, and the transform wrappers
    # that log_lst and log_beta_seq replace, and the pass-through to a law's
    # own tail method with its scalar shim, the uniform law's knot table,
    # the public Poisson g-chain (fixed_point keeps a private one), and the
    # uniform-price sandwich, three fields of optimize_uniform's result, the
    # occupancy record (the occupancy functions returned pi itself), the
    # per-law occupancy pair and its dispatcher (evaluate returns theta and
    # pi), the sweep row (sweep returns `SolveResult`s), the
    # infinite-server pair (optimize_uniform's p_star_inf and revenue_inf_bound),
    # and the two solvers' result records (both return SolveResult)
    modules = (farm_pricer, farm_pricer.mdp_general, farm_pricer.mdp_poisson,
               farm_pricer.valuation, farm_pricer.errors, farm_pricer.cli,
               farm_pricer.arrival, farm_pricer.uniform_pricing,
               farm_pricer.stationary)  # fmt: skip
    removed = ("g_chain_general", "m_inverse", "OutOfRange", "BracketCollapse",
               "NonFiniteObjective", "UnknownFigure", "figures", "emit_figure_data",
               "DegenerateTransform", "QuadratureFailure", "SingularChain", "lst",
               "beta_seq", "_log_beta_seq", "tail", "_as_float_or_array", "_knots",
               "g_chain", "gap_bound", "OccupancyDist", "occupancy_poisson",
               "occupancy_general", "_occupancy_and_rate", "SweepRow",
               "infinite_server_limit", "PoissonSolveResult",
               "GeneralSolveResult")  # fmt: skip
    for module in modules:
        for name in removed:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert len(farm_pricer.__all__) == 36
    # each number once per record: the bisection's exit width, the renewal
    # chain's h-differences (Delta and m give them), and the simulator's
    # blocking copies of occupancy_hist[K] and rep_seen_counts
    solve_fields = [f.name for f in dataclasses.fields(farm_pricer.SolveResult)]
    sim_fields = {f.name for f in dataclasses.fields(farm_pricer.SimResult)}
    assert solve_fields == ["theta_star", "deltas", "prices", "residuals", "iterations"]
    assert not {"blocking_frac", "rep_blocking_fracs"} & sim_fields
    # records keep only what the caller did not pass in
    for law in (farm_pricer.UniformInterval(0.0, 1.0), farm_pricer.TwoPoint(0.5, 0.5, 1.5)):
        assert not hasattr(law, "rate")
    assert isinstance(farm_pricer.UniformValuation(0, 2), farm_pricer.TabulatedTail)
    assert len(typing.get_args(farm_pricer.valuation.ValuationDist)) == 3
    for law in (farm_pricer.ExponentialValuation(1.0), farm_pricer.ParetoValuation(1.0),
                farm_pricer.UniformValuation(0.5, 2.0)):  # fmt: skip
        assert not hasattr(law, "mean_value")
    assert farm_pricer.AuxEval._fields == ("u_star", "m_val")
    assert farm_pricer.stationary.Evaluation._fields == ("theta", "pi")
    assert "Evaluation" not in farm_pricer.__all__


def test_mdp_poisson_only_re_exports_fixed_point():
    # perfbench's tracer finds its targets by object identity, so a copy
    # under this module's name would escape its per-layer rows
    module = farm_pricer.mdp_poisson
    assert {name for name in vars(module) if not name.startswith("__")} == {"fixed_point"}
    assert module.fixed_point is farm_pricer.mdp_general.fixed_point is farm_pricer.fixed_point


def test_cli_reads_no_private_attribute_of_a_library_module():
    tree = ast.parse(Path(farm_pricer.cli.__file__).read_text())
    library = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module is None and node.level == 1
               for alias in node.names}  # fmt: skip
    assert "stationary" in library
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in library and node.attr.startswith("_")]  # fmt: skip
    assert private == []


def test_package_import_loads_no_front_end():
    code = """
import json, sys
import farm_pricer
print(json.dumps(sorted({"farm_pricer.cli", "farm_pricer.figures"} & set(sys.modules))))
"""
    assert _run(code) == []


def test_poisson_and_uniform_paths_load_no_scipy():
    assert _run(NUMPY_ONLY_PATH + SCIPY_LOADED) == []


def test_renewal_long_gap_and_simulate_paths_load_no_scipy():
    later = """
from farm_pricer.arrival import rare_long_gap_family

det = fp.SystemSpec(5, 2.0, fp.Deterministic(rate=25.0), fp.ExponentialValuation(beta=1.0))
assert abs(fp.solve_general(det).theta_star - 7.904175) < 1e-5
sim = fp.simulate(fp.SimConfig(spec, res.prices, horizon_arrivals=2000, replications=3, seed=1))
assert sim.revenue_rate_ci_half > 0.0
gaps = rare_long_gap_family(1e3)
assert abs(gaps.p1 * gaps.x1 + (1.0 - gaps.p1) * gaps.x2 - 1e-3) < 1e-12
"""
    assert _run(NUMPY_ONLY_PATH + later + SCIPY_LOADED) == []


def test_every_cli_command_and_figure_loads_no_scipy():
    every_command = """
det = ["--k", "5", "--mu", "2", "--valuation", "exp:1", "--arrival", "det:25"]
sim = ["--arrivals", "2000", "--reps", "3", "--seed", "1"]
for argv in (
    ["solve-general", *det],
    ["uniform", *det],
    ["evaluate", *det, "--prices", "1.2,1.2,1.3,1.45,1.8"],
    ["simulate", *base, *sim],
    ["simulate", *det, *sim],
    ["sweep", *base, "--vary", "K", "--grid", "3,4", "--format", "csv"],
    ["compare", *base],
    ["compare", *det],
    *(["figure", "--id", fid] for fid in sorted(cli._FIGURES)),
):
    assert cli.run([*argv, "--out", str(out / "out")]) == 0, argv
assert len(cli._FIGURES) == 7
"""
    assert _run(NUMPY_ONLY_PATH + every_command + SCIPY_LOADED) == []


def test_simulate_loads_no_numpy_random():
    code = """
import json, sys, tempfile
from pathlib import Path

import farm_pricer as fp
from farm_pricer import cli

spec = fp.SystemSpec(5, 2.0, fp.Exponential(rate=25.0), fp.ExponentialValuation(beta=1.0))
cfg = fp.SimConfig(spec, fp.fixed_point(spec).prices, horizon_arrivals=2000, replications=3)
assert fp.simulate(cfg).revenue_rate_ci_half > 0.0
out = str(Path(tempfile.mkdtemp()) / "out")
argv = ["simulate", "--k", "5", "--mu", "2", "--valuation", "exp:1", "--arrivals", "2000"]
assert cli.run([*argv, "--lambda", "25", "--service", "uniform:2", "--out", out]) == 0
assert cli.run([*argv, "--arrival", "two_point:0.01:0.5:0.07", "--out", out]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy.random"))))
"""
    assert _run(code) == []
