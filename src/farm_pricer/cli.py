"""Command-line front end.

Subcommands: solve-poisson, solve-general, uniform, evaluate, simulate,
sweep, compare, figure.  System parameters come from a JSON config file
(--config) and/or flags (--k/--lambda/--mu/--valuation/--arrival), flags
winning; --lambda and --arrival exclude each other.  Structured output
(JSON, or CSV where tabular) goes to --out or stdout; a one-line summary
goes to stderr.  Exit codes: 0 success, 2 configuration problem, 3 solver
failure.  The tables `figure` writes are defined here; the library never
imports this module.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import simulator, stationary, uniform_pricing
from .arrival import Deterministic, Exponential, UniformInterval
from .errors import ConfigError, PricingError
from .mdp_general import solve_general, sweep
from .model import SystemSpec, config_from_shorthand, law_from_config, price_array, spec_from_config
from .model import shorthand_usage
from .valuation import ExponentialValuation, eval_m


def _spec_from_args(args) -> SystemSpec:
    cfg = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"{args.config} line {exc.lineno}: {exc.msg}") from None
        cfg = loaded.get("system", loaded) if isinstance(loaded, dict) else loaded
        if not isinstance(cfg, dict):
            raise ConfigError("system", "config file must hold an object")
        cfg = dict(cfg)
    if args.k is not None:
        cfg["servers"] = args.k
    if args.mu is not None:
        cfg["mu"] = args.mu
    if args.lam is not None and args.arrival is not None:
        raise ConfigError("arrival", "--lambda and --arrival both name the arrival law; give one")
    if args.lam is not None:  # the config file's own shorthand, so errors name 'lambda'
        cfg.pop("arrival", None)
        cfg["lambda"] = args.lam
    if args.arrival is not None:
        cfg["arrival"] = config_from_shorthand("arrival", args.arrival)
    if args.valuation is not None:
        cfg["valuation"] = config_from_shorthand("valuation", args.valuation)
    return spec_from_config(cfg)


def _numbers(key: str, text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(key, f"expected comma-separated numbers, got '{text}'") from None


def _prices(args, spec: SystemSpec) -> list[float]:
    """--prices as given, once price_array accepts it for this system."""
    prices = _numbers("prices", args.prices)
    try:
        price_array(spec, prices)
    except ValueError as exc:
        raise ConfigError("prices", str(exc)) from None
    return prices


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.10g}"
    return "" if x is None else str(x)


def _csv_text(header, rows) -> str:
    """Comma-joined lines, floats to 10 significant digits and None blank."""
    lines = [",".join(header)] + [",".join(_csv_cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(args, payload, summary: str) -> None:
    """Write payload (CSV text as is, else JSON) to --out or stdout; summary to stderr."""
    if not isinstance(payload, str):
        payload = json.dumps(_jsonable(payload), indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(payload)
        except OSError as exc:
            raise ConfigError("out", f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(payload)
    print(summary, file=sys.stderr)


def _emit_rows(args, rows: list[dict], summary: str, key: str | None = None) -> None:
    """Rows as JSON (a list, or {key: list}) or as CSV, where a row's
    'prices' spread over the columns p_0, p_1, ... and None is blank."""
    if args.format == "json":
        _emit(args, rows if key is None else {key: rows}, summary)
        return
    prices = [list(r.pop("prices", ())) for r in rows]
    width = max(map(len, prices))
    header = [*rows[0], *(f"p_{i}" for i in range(width))]
    table = [[*r.values(), *p, *[None] * (width - len(p))] for r, p in zip(rows, prices)]
    _emit(args, _csv_text(header, table), summary)


def _revenues(spec: SystemSpec):
    """The best uniform pricing, the revenue at its infinite-server price, and theta*."""
    uni = uniform_pricing.optimize_uniform(spec.arrival, spec.valuation, spec.mu, spec.servers)
    at_inf_price = uniform_pricing.revenue_uniform(
        spec.arrival, spec.valuation, spec.mu, spec.servers, uni.p_star_inf
    )
    return uni, at_inf_price, solve_general(spec).theta_star


def _cmd_solve(args) -> int:
    spec = _spec_from_args(args)
    if args.command == "solve-poisson" and not spec.is_poisson:
        raise ConfigError(
            "arrival", "solve-poisson needs exponential interarrivals; use solve-general"
        )
    res = solve_general(spec)
    worst = np.max(np.abs(res.residuals))
    summary = f"theta* = {res.theta_star:.6g} after {res.iterations} iterations"
    _emit(args, vars(res), f"{summary}, max residual {worst:.2e}")
    return 0


def _cmd_uniform(args) -> int:
    spec = _spec_from_args(args)
    res = uniform_pricing.optimize_uniform(spec.arrival, spec.valuation, spec.mu, spec.servers)
    _emit(args, vars(res), f"best uniform price {res.p_star_K:.6g} earns {res.revenue_K:.6g}")
    return 0


def _cmd_evaluate(args) -> int:
    spec = _spec_from_args(args)
    if args.prices is None:
        raise ConfigError("prices", "evaluate needs --prices p0,p1,...")
    rate, pi = stationary.evaluate(spec, _prices(args, spec))
    payload = {"revenue_rate": rate, "occupancy": pi}
    _emit(args, payload, f"revenue rate {rate:.6g}, blocking {pi[-1]:.6g}")
    return 0


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    if args.prices is not None:
        theta, prices = None, np.asarray(_prices(args, spec), dtype=float)
    else:
        res = solve_general(spec)
        theta, prices = res.theta_star, res.prices
    service = None
    if args.service is not None:
        service = config_from_shorthand("arrival", args.service, "service")
        service = law_from_config("arrival", service, "service")
    try:
        cfg = simulator.SimConfig(
            spec=spec,
            prices=prices,
            horizon_arrivals=args.arrivals,
            warmup_arrivals=args.warmup,
            replications=args.reps,
            seed=args.seed,
            service_law=service,
        )
        res = simulator.simulate(cfg)
    except ValueError as exc:
        raise ConfigError("simulate", str(exc)) from None
    payload = {"revenue_rate_mean": res.revenue_rate_mean,
               "revenue_rate_ci_half": res.revenue_rate_ci_half,
               "occupancy_hist": res.occupancy_hist,
               "accepted_frac_by_state": res.accepted_frac_by_state}  # fmt: skip
    if theta is not None:  # solved here, so not the caller's own input
        payload.update(prices=prices, theta_analytic=theta)
    summary = (
        f"simulated revenue rate {res.revenue_rate_mean:.4g} "
        f"+/- {res.revenue_rate_ci_half:.4g} (95% CI, {args.reps} reps)"
    )
    _emit(args, payload, summary)
    return 0


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    grid = _numbers("grid", args.grid)
    try:
        solved = sweep(spec, args.vary, grid)
    except ValueError as exc:
        raise ConfigError("sweep", str(exc)) from None
    rows = [
        {"param": args.vary, "value": v, "theta_star": r.theta_star,
         "theta_over_value": r.theta_star / v, "prices": r.prices}
        for v, r in zip(grid, solved)
    ]  # fmt: skip
    _emit_rows(args, rows, f"swept {args.vary} over {len(rows)} points")
    return 0


def _cmd_compare(args) -> int:
    uni, rev_at_inf_price, theta = _revenues(_spec_from_args(args))
    rows = [
        {"policy": "uniform-infinite-server-price", "price": uni.p_star_inf, "revenue": rev_at_inf_price},
        {"policy": "uniform-best", "price": uni.p_star_K, "revenue": uni.revenue_K},
        {"policy": "state-dependent", "price": None, "revenue": theta},
    ]
    summary = f"revenues {rev_at_inf_price:.4g} <= {uni.revenue_K:.4g} <= {theta:.4g}"
    _emit_rows(args, rows, summary, key="rows")
    return 0


def _reference(k: int, lam: float) -> SystemSpec:
    """The figures' system: Poisson(lam) arrivals, exp(1) valuations and mu = 2."""
    return SystemSpec(k, 2.0, Exponential(rate=lam), ExponentialValuation(beta=1.0))


def _fig_prices():
    """Optimal prices per state for three interarrival laws at rate 25."""
    laws = (Deterministic(rate=25.0), UniformInterval.from_rate(25.0), Exponential(rate=25.0))
    solved = [solve_general(dataclasses.replace(_reference(5, 25.0), arrival=law)) for law in laws]
    rows = [[i, *(res.prices[i] for res in solved)] for i in range(5)]
    return ["state", "constant", "uniform", "exponential"], rows


def _fig_sweep(vary: str, grid: list[float]):
    """theta* and theta*/parameter along a grid around the 5-server system."""
    solved = sweep(_reference(5, 25.0), vary, grid)
    header = [vary, "theta_star", f"theta_over_{vary}"]
    return header, [[v, r.theta_star, r.theta_star / v] for v, r in zip(grid, solved)]


def _fig_loads(k: int, rhos: list[float]):
    """The three revenues of `compare` across offered loads rho = lambda / mu."""
    header = ["rho", "lambda", "revenue_uniform_inf_price", "revenue_uniform_best",
              "revenue_optimal"]  # fmt: skip
    rows = []
    for rho in rhos:
        lam = 2.0 * rho
        uni, at_inf_price, theta = _revenues(_reference(k, lam))
        rows.append([rho, lam, at_inf_price, uni.revenue_K, theta])
    return header, rows


def _fig_rev_vs_k():
    """Finite-K optimal revenue closing on the infinite-server level lambda/e."""
    spec = _reference(5, 20.0)
    limit = spec.arrival_rate * eval_m(spec.valuation, 0.0).m_val
    servers = range(5, 11)
    solved = sweep(spec, "K", servers)
    return ["servers", "theta_star", "infinite_server_revenue"], [
        [k, r.theta_star, limit] for k, r in zip(servers, solved)
    ]


# Each figure id builds (header, rows) for the CSV behind one results figure.
_FIGURES = {
    "opt-pri-exp": _fig_prices,
    "lam-rev": lambda: _fig_sweep("lambda", [10, 15, 20, 25, 30]),
    "mu-rev": lambda: _fig_sweep("mu", [1, 2, 3, 4, 5]),
    "serv-rev": lambda: _fig_sweep("servers", [3, 4, 5, 6, 7]),
    "five-servers": lambda: _fig_loads(5, [0.5, 1.0, 5.0, 10.0]),
    "ten-servers": lambda: _fig_loads(10, [5.0, 10.0, 15.0, 25.0]),
    "rev-vs-k": _fig_rev_vs_k,
}


def _cmd_figure(args) -> int:
    if args.id not in _FIGURES:
        raise ConfigError("id", f"'{args.id}' not in {sorted(_FIGURES)}")
    args.out = args.out or f"{args.id}.csv"
    _emit(args, _csv_text(*_FIGURES[args.id]()), f"wrote {Path(args.out)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farm-pricer",
        description="Revenue-optimal admission prices for K-server loss systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        """A subcommand taking the system flags and --out."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file with a 'system' object")
        p.add_argument("--k", type=int, help="number of servers")
        p.add_argument("--lambda", dest="lam", type=float, help="Poisson arrival rate")
        p.add_argument("--mu", type=float, help="per-server service rate")
        p.add_argument("--valuation", help=f"valuation law: {shorthand_usage('valuation')}")
        p.add_argument("--arrival", help=f"interarrival law: {shorthand_usage('arrival')}")
        p.add_argument("--out", help="write structured output here instead of stdout")
        p.set_defaults(fn=fn)
        return p

    formats = {"choices": ["json", "csv"], "default": "json", "help": "output format"}

    command("solve-poisson", _cmd_solve, "state-dependent optimum, Poisson arrivals")
    command("solve-general", _cmd_solve, "state-dependent optimum, renewal arrivals")
    command("uniform", _cmd_uniform, "best single price and optimality-gap bounds")

    p = command("evaluate", _cmd_evaluate, "revenue and occupancy for an explicit price vector")
    p.add_argument("--prices", help="comma-separated p_0,...,p_{K-1}")

    p = command("simulate", _cmd_simulate, "discrete-event simulation at given or optimal prices")
    p.add_argument("--prices", help="comma-separated prices; omit to simulate the optimum")
    p.add_argument("--arrivals", type=int, default=200_000, help="arrivals per replication")
    p.add_argument("--warmup", type=int, default=None, help="warmup arrivals (default 10%%)")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--service", help="service-time law, named as for --arrival (default exp:mu)")

    p = command("sweep", _cmd_sweep, "re-solve along a lambda/mu/K grid")
    p.add_argument("--vary", required=True, choices=["lambda", "mu", "K"])
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--format", **formats)

    p = command("compare", _cmd_compare, "uniform vs state-dependent revenue")
    p.add_argument("--format", **formats)

    p = sub.add_parser("figure", help="regenerate the CSV behind a results figure")
    p.add_argument("--id", required=True, help=f"one of {sorted(_FIGURES)}")
    p.add_argument("--out", help="output CSV path (default <id>.csv)")
    p.set_defaults(fn=_cmd_figure)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PricingError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
