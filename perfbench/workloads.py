"""Inputs, operations and output checks of the benchmark workloads.

Each workload is built from a seed alone and exposes
  warmup()          one untimed op, run during set-up;
  blocks            an iterator over the op inputs, in the order
                    they are timed, grouped in blocks; a run times whole
                    blocks only, so every run holds the same mix of inputs;
  run(op, traced)   -> Outcome; runs one op and checks its output;
  finish(traced)    -> list of problems found by end-of-run checks.
Library calls go through module attributes (`fp.mdp_poisson.fixed_point`)
so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import farm_pricer as fp

MU = 2.0


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    # compared between the untraced and the traced run of the same op
    signature: tuple = ()


def _jitter(rng: random.Random, x: float, width: float) -> float:
    """x times e^u, u uniform on [-width, width]."""
    return x * math.exp(rng.uniform(-width, width))


def _arrays_signature(*values) -> tuple:
    out = []
    for v in values:
        if isinstance(v, np.ndarray):
            out.append((v.dtype.str, v.shape, v.tobytes()))
        else:
            out.append(v)
    return tuple(out)


# ---------------------------------------------------------------- certified jobs


def describe(spec) -> dict:
    """JSON-able parameters of a SystemSpec, used to list failing ops."""

    def law(obj):
        return {"kind": type(obj).__name__, **vars(obj)}

    return {
        "K": spec.servers,
        "mu": spec.mu,
        "lambda": spec.arrival_rate,
        "load": spec.arrival_rate / (spec.servers * spec.mu),
        "arrival": law(spec.arrival),
        "valuation": law(spec.valuation),
    }


def certified_job(spec) -> Outcome:
    """Solve, then certify: revenue_rate(prices) = theta*, uniform <= theta* <= gap_upper."""
    if spec.is_poisson:
        res = fp.mdp_poisson.fixed_point(spec)
        rev = fp.stationary.revenue_rate(spec, res.prices)
    else:
        res = fp.mdp_general.solve_general(spec)
        dep = fp.arrival.departure_matrix(spec.arrival, spec.mu, spec.servers)
        rev = fp.stationary.revenue_rate(spec, res.prices, dep)
    uni = fp.uniform_pricing.optimize_uniform(spec.arrival, spec.valuation, spec.mu, spec.servers)

    theta = float(res.theta_star)
    prices = np.asarray(res.prices, dtype=float)
    sig = _arrays_signature(theta, prices, float(rev), float(uni.revenue_K), float(uni.gap_upper))
    if not (math.isfinite(theta) and np.all(np.isfinite(prices))):
        return Outcome(False, f"non-finite theta* {theta} or prices", sig)
    if not abs(rev - theta) <= 1e-6 * theta:
        return Outcome(False, f"revenue_rate(prices) = {rev:.9g} but theta* = {theta:.9g}", sig)
    slack = max(1e-9 * theta, 1e-8)
    if not uni.revenue_K <= theta + slack:
        return Outcome(False, f"theta* = {theta:.9g} below best uniform {uni.revenue_K:.9g}", sig)
    if not theta <= uni.gap_upper + slack:
        return Outcome(False, f"theta* = {theta:.9g} above gap_upper {uni.gap_upper:.9g}", sig)
    return Outcome(True, "", sig)


class JobWorkload:
    """Certified pricing jobs on blocks of SystemSpecs; `warm_spec` is the warm-up op."""

    def __init__(self, warm_spec, blocks):
        self.warm_spec = warm_spec
        self.blocks = blocks  # iterator of lists of SystemSpecs

    def warmup(self) -> None:
        certified_job(self.warm_spec)

    def run(self, spec, traced: bool) -> Outcome:
        try:
            return certified_job(spec)
        except Exception as exc:  # a raising solve is a failed op, not a crash
            text = f"{type(exc).__name__}: {exc}".splitlines()[0][:300]
            return Outcome(False, text, (type(exc).__name__, str(exc)))

    def describe(self, spec) -> dict:
        return describe(spec)

    def finish(self, traced: bool) -> list[str]:
        return []


def _poisson(k: int, lam: float):
    return fp.SystemSpec(k, MU, fp.Exponential(rate=lam), fp.ExponentialValuation(beta=1.0))


# The job workloads run a fixed design whose values the seed jitters, rather
# than drawing K and load freely: a run holds only 20-130 jobs whose costs
# span 1 ms to 9 s, and with free log-uniform draws the median op latency
# moved by 18-22% between seeds (the tail by 40-70%), which hides any change
# smaller than that.
K_JITTER = 0.05  # K x e^u, |u| <= 0.05, then rounded
LOAD_JITTER = 0.1  # load x e^u, |u| <= 0.1

POISSON_K = (2, 5, 12, 30, 70, 160, 400, 1000)  # log grid over [2, 1000]
POISSON_LOAD = (0.07, 0.25, 0.9, 3.2)  # log grid over [0.05, 5]
# From an arrival rate of about 190 up, fixed_point can return prices that
# earn nothing or raise `B must be finite` (the ROADMAP regression specs).
# The timed workload keeps the grid cells with rates up to
# POISSON_MAX_LAMBDA, which pass at every jitter, so that its latencies do
# not move when the defect is fixed; the other cells run in `known-defects`.
POISSON_MAX_LAMBDA = 150.0
POISSON_CELLS = tuple(
    (k, load) for k in POISSON_K for load in POISSON_LOAD if k * load * MU <= POISSON_MAX_LAMBDA
)
# The K=1000 cell, the costliest, runs twice per block.  The tail is the
# 11th-largest latency of a run; with two K=1000 ops in every block of 23,
# it stays inside their cluster whenever a run holds 7 or more blocks,
# instead of jumping to the next cluster as the number of blocks changes.
POISSON_BLOCK = POISSON_CELLS + ((1000, 0.07),)


def poisson_exp(seed: int) -> JobWorkload:
    """Poisson arrivals, exp(1) valuations, K in [2, 1000], load in [0.05, 5].

    Every block is POISSON_BLOCK: the POISSON_CELLS part of the
    POISSON_K x POISSON_LOAD grid, with the K=1000 cell twice, each op
    jittered, in shuffled order.
    """
    return JobWorkload(_poisson(5, 25.0), _poisson_blocks(random.Random(seed)))


def _poisson_blocks(rng: random.Random):
    while True:
        block = []
        for k0, load0 in POISSON_BLOCK:
            k = min(max(round(_jitter(rng, k0, K_JITTER)), 2), 1000)
            load = _jitter(rng, load0, LOAD_JITTER)
            block.append(_poisson(k, load * k * MU))
        rng.shuffle(block)
        yield block


_TABLE = fp.TabulatedTail(
    xs=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0), gs=(1.0, 0.8, 0.55, 0.35, 0.2, 0.06, 0.0)
)
_VALUATIONS = (fp.ExponentialValuation(beta=1.0), fp.UniformValuation(lo=0.0, hi=2.0), _TABLE)


def _renewal_arrival(kind: int, lam: float):
    if kind == 0:
        return fp.Deterministic(rate=lam)
    if kind == 1:
        return fp.UniformInterval.from_rate(lam)
    return fp.TwoPoint(x1=0.2 / lam, p1=0.5, x2=1.8 / lam)


RENEWAL_K = 4
RENEWAL_LOAD = (0.08, 0.4, 2.0)


def renewal_mixed(seed: int) -> JobWorkload:
    """Deterministic / uniform / two-point arrivals x exp / uniform / tabulated valuations.

    Every block is the full factorial: each (arrival, valuation) pair at
    each RENEWAL_LOAD level, K = RENEWAL_K, loads jittered, order shuffled.
    The light-traffic regression spec runs in `known-defects`.  K
    is held fixed because a run holds only ~30 of these 0.1-3 s jobs: with
    K drawn from [2, 12] the median fell between K levels and moved by
    20-26% between seeds.
    """
    warm = fp.SystemSpec(2, MU, fp.UniformInterval.from_rate(4.0), fp.ExponentialValuation(beta=1.0))
    return JobWorkload(warm, _renewal_blocks(random.Random(seed)))


def _renewal_blocks(rng: random.Random):
    while True:
        block = []
        for a, valuation, load0 in itertools.product(range(3), _VALUATIONS, RENEWAL_LOAD):
            lam = _jitter(rng, load0, LOAD_JITTER) * RENEWAL_K * MU
            block.append(fp.SystemSpec(RENEWAL_K, MU, _renewal_arrival(a, lam), valuation))
        rng.shuffle(block)
        yield block


def known_defects(seed: int) -> JobWorkload:
    """The specs on which the solvers are known to fail, each run once.

    The three regression specs of the ROADMAP (Poisson K=300, lambda=300;
    Poisson K=1000, lambda=5000; Deterministic(0.5) arrivals, K=5), then
    the POISSON_K x POISSON_LOAD cells that poisson-exp leaves out.  Their
    failures are listed and counted in op_fail_frac; the seed is unused.
    """
    specs = [
        _poisson(300, 300.0),
        _poisson(1000, 5000.0),
        fp.SystemSpec(5, MU, fp.Deterministic(rate=0.5), fp.ExponentialValuation(beta=1.0)),
    ]
    specs += [
        _poisson(k, k * load * MU)
        for k in POISSON_K
        for load in POISSON_LOAD
        if (k, load) not in POISSON_CELLS
    ]
    return JobWorkload(_poisson(5, 25.0), iter([specs]))


# ---------------------------------------------------------------- simulator


SIM_HORIZON = 31_250  # arrivals per replication
SIM_REPS = 8
SIM_CI_FACTOR = 5.0  # pass if |mean - analytic| <= 5 x the 95% half-width (~12 standard errors)
SIM_POOLED_SIGMAS = 5.0


@dataclass
class SimCase:
    name: str
    spec: object
    prices: np.ndarray
    analytic: float
    service_law: object = None


class SimulateWorkload:
    """Rounds of `simulate` calls, one per configuration, at prices solved in set-up.

    An op is one round: K=5 and K=50 Poisson, deterministic arrivals, and
    Poisson with deterministic service, each 8 x 31250 arrivals.  A call
    passes when its mean revenue rate is within SIM_CI_FACTOR half-widths
    of revenue_rate(prices).  That only catches gross errors, so after the
    timed loop the replications of all rounds are pooled per configuration
    and held to SIM_POOLED_SIGMAS standard errors.
    """

    def __init__(self, seed: int):
        self.cases = []
        for name, spec, service in (
            ("poisson-K5", _poisson(5, 25.0), None),
            ("poisson-K50", _poisson(50, 100.0), None),
            (
                "det-arrivals-K5",
                fp.SystemSpec(5, MU, fp.Deterministic(rate=25.0), fp.ExponentialValuation(beta=1.0)),
                None,
            ),
            ("poisson-K5-det-service", _poisson(5, 25.0), fp.Deterministic(rate=MU)),
        ):
            if spec.is_poisson:
                prices = fp.mdp_poisson.fixed_point(spec).prices
                analytic = fp.stationary.revenue_rate(spec, prices)
            else:
                prices = fp.mdp_general.solve_general(spec).prices
                dep = fp.arrival.departure_matrix(spec.arrival, spec.mu, spec.servers)
                analytic = fp.stationary.revenue_rate(spec, prices, dep)
            self.cases.append(SimCase(name, spec, np.asarray(prices), float(analytic), service))
        rng = random.Random(seed)
        self.blocks = ([rng.getrandbits(63)] for _ in itertools.count())
        self.call_rates: list[float] = []
        self._reps: dict[str, list[float]] = {case.name: [] for case in self.cases}
        self._first = None

    def _config(self, case: SimCase, sim_seed: int, horizon: int = SIM_HORIZON):
        return fp.simulator.SimConfig(
            spec=case.spec,
            prices=case.prices,
            horizon_arrivals=horizon,
            replications=SIM_REPS,
            seed=sim_seed,
            service_law=case.service_law,
        )

    def warmup(self) -> None:
        fp.simulator.simulate(self._config(self.cases[0], 0, horizon=2000))

    def run(self, sim_seed: int, traced: bool) -> Outcome:
        problems, sig = [], []
        for case in self.cases:
            cfg = self._config(case, sim_seed)
            t0 = perf_counter()
            res = fp.simulator.simulate(cfg)
            dt = perf_counter() - t0
            if not traced:
                self.call_rates.append(SIM_HORIZON * SIM_REPS / dt)
                self._reps[case.name].extend(float(r) for r in res.rep_revenue_rates)
            if self._first is None:
                self._first = (cfg, res)
            err = abs(res.revenue_rate_mean - case.analytic)
            if not err <= SIM_CI_FACTOR * res.revenue_rate_ci_half:
                problems.append(
                    f"{case.name}: simulated {res.revenue_rate_mean:.6g} +/- "
                    f"{res.revenue_rate_ci_half:.3g} vs revenue_rate {case.analytic:.6g}"
                )
            sig.append(_sim_signature(res))
        return Outcome(not problems, "; ".join(problems), tuple(sig))

    def describe(self, sim_seed: int) -> dict:
        return {"sim_seed": sim_seed, "cases": [c.name for c in self.cases]}

    def finish(self, traced: bool) -> list[str]:
        """Pooled revenue check, and a repeat of the first call that must be bit-identical."""
        if traced or self._first is None:
            return []
        problems = []
        for case in self.cases:
            reps = self._reps[case.name]
            if len(reps) < 2:
                continue
            se = statistics.stdev(reps) / math.sqrt(len(reps))
            mean = statistics.fmean(reps)
            if not abs(mean - case.analytic) <= SIM_POOLED_SIGMAS * se:
                problems.append(
                    f"{case.name}: pooled simulated revenue {mean:.6g} +/- {se:.3g} (s.e., "
                    f"{len(reps)} replications) vs revenue_rate {case.analytic:.6g}"
                )
        cfg, res = self._first
        again = fp.simulator.simulate(cfg)
        if _sim_signature(again) != _sim_signature(res):
            problems.append(f"simulate with seed {cfg.seed} is not bit-identical on repeat")
        return problems


def _sim_signature(res) -> tuple:
    return _arrays_signature(
        float(res.revenue_rate_mean),
        float(res.revenue_rate_ci_half),
        np.asarray(res.rep_revenue_rates),
        np.asarray(res.seen_counts),
        np.asarray(res.accepted_counts),
    )


# ---------------------------------------------------------------- cold CLI


BASE_FLAGS = ["--k", "5", "--mu", "2", "--valuation", "exp:1"]
README_PRICES = "1.2,1.2,1.3,1.45,1.8"
FIGURES = {
    "five-servers": (
        ["rho", "lambda", "revenue_uniform_inf_price", "revenue_uniform_best", "revenue_optimal"],
        4,
    ),
    "ten-servers": (
        ["rho", "lambda", "revenue_uniform_inf_price", "revenue_uniform_best", "revenue_optimal"],
        4,
    ),
    "lam-rev": (["lambda", "theta_star", "theta_over_lambda"], 5),
    "mu-rev": (["mu", "theta_star", "theta_over_mu"], 5),
    "serv-rev": (["servers", "theta_star", "theta_over_servers"], 5),
    "opt-pri-exp": (["state", "constant", "uniform", "exponential"], 5),
    "rev-vs-k": (["servers", "theta_star", "infinite_server_revenue"], 6),
}
CLI_COMMANDS = ("solve-poisson", "solve-general", "uniform", "evaluate", "simulate") + tuple(
    f"figure:{fid}" for fid in FIGURES
)
CLI_TIMEOUT_S = 120


def _close(a, b, rel: float = 1e-12) -> bool:
    return abs(float(a) - float(b)) <= rel * max(abs(float(b)), 1e-300)


class CliWorkload:
    """One child process per op: the five README commands and all seven figures.

    Children run one at a time and inherit this process's environment.
    Their outputs are parsed and compared with the same quantities computed
    in this process by the library.
    """

    def __init__(self, seed: int, root: Path):
        self.root = root
        rng = random.Random(seed)
        self.sim_seed = rng.getrandbits(31)
        self.blocks = (rng.sample(CLI_COMMANDS, len(CLI_COMMANDS)) for _ in itertools.count())
        spec = _poisson(5, 25.0)
        det = fp.SystemSpec(5, MU, fp.Deterministic(rate=25.0), fp.ExponentialValuation(beta=1.0))
        uni = fp.uniform_pricing.optimize_uniform(spec.arrival, spec.valuation, MU, 5)
        self.ref = {
            "solve-poisson": fp.mdp_poisson.fixed_point(spec).theta_star,
            "solve-general": fp.mdp_general.solve_general(det).theta_star,
            "uniform": (uni.revenue_K, uni.gap_upper),
            "evaluate": fp.stationary.revenue_rate(spec, [float(x) for x in README_PRICES.split(",")]),
        }
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=root / "perfbench" / "results"))
        self.children: list[dict] = []  # per traced child: import and command time
        self.trace_parts: list[dict] = []

    def argv(self, op: str) -> list[str]:
        if op.startswith("figure:"):
            fid = op.split(":", 1)[1]
            return ["figure", "--id", fid, "--out", str(self.tmp / f"{fid}.csv")]
        if op == "solve-poisson":
            return ["solve-poisson", *BASE_FLAGS, "--lambda", "25"]
        if op == "solve-general":
            return ["solve-general", *BASE_FLAGS, "--arrival", "det:25"]
        if op == "uniform":
            return ["uniform", *BASE_FLAGS, "--lambda", "25"]
        if op == "evaluate":
            return ["evaluate", *BASE_FLAGS, "--lambda", "25", "--prices", README_PRICES]
        return [
            "simulate", *BASE_FLAGS, "--lambda", "25",
            "--arrivals", "20000", "--reps", "10", "--seed", str(self.sim_seed),
        ]  # fmt: skip

    def warmup(self) -> None:
        out = self.run("solve-poisson", traced=False)
        if not out.ok:
            raise RuntimeError(f"warm-up CLI child failed: {out.reason}")

    def run(self, op: str, traced: bool) -> Outcome:
        self.tmp.mkdir(parents=True, exist_ok=True)
        argv = self.argv(op)
        stats_path = self.tmp / "child-trace.json"
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(stats_path), *argv]
        else:
            cmd = [sys.executable, "-m", "farm_pricer.cli", *argv]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S,
            )  # fmt: skip
        except subprocess.TimeoutExpired:
            return Outcome(False, f"timed out after {CLI_TIMEOUT_S} s", ("timeout",))
        if traced and stats_path.exists():
            part = json.loads(stats_path.read_text())
            stats_path.unlink()
            self.children.append(part.pop("timing"))
            self.trace_parts.append(part)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return Outcome(False, f"exit {proc.returncode}: {tail[0][:300]}", (proc.returncode,))
        try:
            return self._check(op, proc.stdout)
        except (ValueError, KeyError, OSError) as exc:
            return Outcome(False, f"unreadable output: {type(exc).__name__}: {exc}", ("unreadable",))

    def _check(self, op: str, stdout: str) -> Outcome:
        if op.startswith("figure:"):
            fid = op.split(":", 1)[1]
            path = self.tmp / f"{fid}.csv"
            with open(path, newline="") as f:
                rows = list(csv.reader(f))
            path.unlink()
            header, n_rows = FIGURES[fid]
            sig = (tuple(map(tuple, rows)),)
            if rows[:1] != [header]:
                return Outcome(False, f"{fid}: header {rows[:1]} != {header}", sig)
            if len(rows) - 1 != n_rows:
                return Outcome(False, f"{fid}: {len(rows) - 1} rows, expected {n_rows}", sig)
            return Outcome(True, "", sig)
        out = json.loads(stdout)
        sig = (stdout,)
        if op in ("solve-poisson", "solve-general"):
            got, want = out["theta_star"], self.ref[op]
        elif op == "uniform":
            got, want = (out["revenue_K"], out["gap_upper"]), self.ref[op]
            if _close(got[0], want[0]) and _close(got[1], want[1]):
                return Outcome(True, "", sig)
            return Outcome(False, f"uniform revenue_K, gap_upper {got} != library {want}", sig)
        elif op == "evaluate":
            got, want = out["revenue_rate"], self.ref[op]
        else:
            got, want = out["theta_analytic"], self.ref["solve-poisson"]
            err = abs(out["revenue_rate_mean"] - want)
            if not err <= SIM_CI_FACTOR * out["revenue_rate_ci_half"]:
                return Outcome(
                    False,
                    f"simulated {out['revenue_rate_mean']:.6g} +/- {out['revenue_rate_ci_half']:.3g}"
                    f" vs theta* {want:.6g}",
                    sig,
                )
        if not _close(got, want):
            return Outcome(False, f"{op}: CLI gives {got!r}, library {want!r}", sig)
        return Outcome(True, "", sig)

    def describe(self, op: str) -> dict:
        return {"argv": self.argv(op)}

    def finish(self, traced: bool) -> list[str]:
        shutil.rmtree(self.tmp, ignore_errors=True)
        return []


WORKLOADS = ("poisson-exp", "cli-cold", "known-defects", "simulate", "renewal-mixed")


def build(name: str, seed: int, root: Path):
    if name == "poisson-exp":
        return poisson_exp(seed)
    if name == "renewal-mixed":
        return renewal_mixed(seed)
    if name == "known-defects":
        return known_defects(seed)
    if name == "simulate":
        return SimulateWorkload(seed)
    if name == "cli-cold":
        return CliWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
