"""Command-line front end.

Subcommands: solve-poisson, solve-general, uniform, evaluate, simulate,
sweep, compare, figure.  System parameters come from a JSON config file
(--config) and/or flags (--k/--lambda/--mu/--valuation/--arrival), flags
winning.  Structured output (JSON, or CSV where tabular) goes to --out or
stdout; a one-line summary goes to stderr.  Exit codes: 0 success, 2
configuration problem, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import mdp_general, mdp_poisson, simulator, stationary, uniform_pricing
from .errors import ConfigError, PricingError
from .figures import _FIGURES, _csv_cell, _write_text, emit_figure_data
from .model import SystemSpec, price_array, spec_from_config


def _parse_shorthand(text: str, which: str) -> dict:
    """'exp:1' / 'uniform:0:2' / 'two_point:1:0.5:2' -> config dict."""
    parts = text.split(":")
    kind, params = parts[0].lower(), parts[1:]
    try:
        nums = [float(x) for x in params]
    except ValueError:
        raise ConfigError(which, f"non-numeric parameter in '{text}'") from None
    if which == "valuation":
        if kind in ("exp", "exponential") and len(nums) == 1:
            return {"kind": "exponential", "beta": nums[0]}
        if kind == "pareto" and len(nums) == 1:
            return {"kind": "pareto", "theta": nums[0]}
        if kind == "uniform" and len(nums) == 2:
            return {"kind": "uniform", "lo": nums[0], "hi": nums[1]}
        raise ConfigError(
            "valuation",
            f"cannot parse '{text}'; use exp:beta, pareto:theta or uniform:lo:hi "
            "(tabulated tails need a config file)",
        )
    if kind in ("exp", "exponential", "poisson") and len(nums) == 1:
        return {"kind": "exponential", "rate": nums[0]}
    if kind in ("det", "deterministic", "constant") and len(nums) == 1:
        return {"kind": "deterministic", "rate": nums[0]}
    if kind == "uniform" and len(nums) == 1:
        return {"kind": "uniform", "rate": nums[0]}
    if kind == "uniform" and len(nums) == 2:
        return {"kind": "uniform", "lo": nums[0], "hi": nums[1]}
    if kind == "two_point" and len(nums) == 3:
        return {"kind": "two_point", "x1": nums[0], "p1": nums[1], "x2": nums[2]}
    raise ConfigError(
        which,
        f"cannot parse '{text}'; use exp:rate, det:rate, uniform:rate, "
        "uniform:lo:hi or two_point:x1:p1:x2",
    )


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{path} line {exc.lineno}: {exc.msg}") from None


def _spec_from_args(args) -> SystemSpec:
    cfg = {}
    if args.config:
        loaded = _load_config(args.config)
        cfg = loaded.get("system", loaded)
        if not isinstance(cfg, dict):
            raise ConfigError("system", "config file must hold an object")
        cfg = dict(cfg)
    if args.k is not None:
        cfg["servers"] = args.k
    if args.mu is not None:
        cfg["mu"] = args.mu
    if args.lam is not None:
        cfg["arrival"] = {"kind": "exponential", "rate": args.lam}
    if args.arrival is not None:
        cfg["arrival"] = _parse_shorthand(args.arrival, "arrival")
    if args.valuation is not None:
        cfg["valuation"] = _parse_shorthand(args.valuation, "valuation")
    return spec_from_config(cfg)


def _parse_prices(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ConfigError("prices", f"expected comma-separated numbers, got '{text}'") from None


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _emit(payload, args, summary: str) -> None:
    text = json.dumps(_jsonable(payload), indent=2)
    if getattr(args, "out", None):
        _write_text(args.out, text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)


def _emit_csv(header: list[str], rows: list[list], args, summary: str) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(x) for x in row))
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _solver_for(spec: SystemSpec):
    """(theta_star, prices) by the formulation matching the arrival law."""
    if spec.is_poisson:
        res = mdp_poisson.fixed_point(spec)
    else:
        res = mdp_general.solve_general(spec)
    return res.theta_star, res.prices


def _cmd_solve_poisson(args) -> int:
    spec = _spec_from_args(args)
    if not spec.is_poisson:
        raise ConfigError(
            "arrival", "solve-poisson needs exponential interarrivals; use solve-general"
        )
    if not args.precision > 0:
        raise ConfigError("precision", f"must be > 0, got {args.precision}")
    res = mdp_poisson.fixed_point(spec, delta_precision=args.precision)
    _emit(
        {
            "theta_star": res.theta_star,
            "deltas": res.deltas,
            "prices": res.prices,
            "iterations": res.iterations,
            "bracket_width": res.bracket_width,
        },
        args,
        f"theta* = {res.theta_star:.6f} after {res.iterations} bisection steps",
    )
    return 0


def _cmd_solve_general(args) -> int:
    spec = _spec_from_args(args)
    res = mdp_general.solve_general(spec)
    _emit(
        {
            "theta_star": res.theta_star,
            "deltas": res.deltas,
            "b": res.b_vals,
            "prices": res.prices,
            "residuals": res.residuals,
        },
        args,
        f"theta* = {res.theta_star:.6f}, max residual {np.max(np.abs(res.residuals)):.2e}",
    )
    return 0


def _cmd_uniform(args) -> int:
    spec = _spec_from_args(args)
    res = uniform_pricing.optimize_uniform(spec.arrival, spec.valuation, spec.mu, spec.servers)
    _emit(
        {
            "p_star_K": res.p_star_K,
            "revenue_K": res.revenue_K,
            "p_star_inf": res.p_star_inf,
            "revenue_inf_bound": res.revenue_inf_bound,
            "gap_lower": res.revenue_K,
            "gap_upper": res.gap_upper,
            "coarse_gap": res.coarse_gap,
        },
        args,
        f"best uniform price {res.p_star_K:.6f} earns {res.revenue_K:.6f}",
    )
    return 0


def _cmd_evaluate(args) -> int:
    spec = _spec_from_args(args)
    if args.prices is None:
        raise ConfigError("prices", "evaluate needs --prices p0,p1,...")
    prices = _parse_prices(args.prices)
    try:
        p = price_array(spec, prices)
    except ValueError as exc:
        raise ConfigError("prices", str(exc)) from None
    occ, rate = stationary._occupancy_and_rate(spec, p)
    _emit(
        {
            "revenue_rate": rate,
            "occupancy": occ.pi,
            "blocking": occ.pi[-1],
            "view": occ.view,
        },
        args,
        f"revenue rate {rate:.6f}, blocking {occ.pi[-1]:.6f}",
    )
    return 0


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    if args.prices is not None:
        prices = _parse_prices(args.prices)
        try:
            price_array(spec, prices)
        except ValueError as exc:
            raise ConfigError("prices", str(exc)) from None
        theta = None
    else:
        theta, prices = _solver_for(spec)
    service = None
    if args.service is not None:
        from .arrival import arrival_from_config

        try:
            service = arrival_from_config(_parse_shorthand(args.service, "service"))
        except ConfigError as exc:  # interval laws report their errors as 'arrival'
            raise ConfigError("service", str(exc).split(": ", 1)[1]) from None
    try:
        cfg = simulator.SimConfig(
            spec=spec,
            prices=np.asarray(prices, dtype=float),
            horizon_arrivals=args.arrivals,
            warmup_arrivals=args.warmup,
            replications=args.reps,
            seed=args.seed,
            service_law=service,
        )
        res = simulator.simulate(cfg)
    except ValueError as exc:
        raise ConfigError("simulate", str(exc)) from None
    payload = {
        "revenue_rate_mean": res.revenue_rate_mean,
        "revenue_rate_ci_half": res.revenue_rate_ci_half,
        "blocking_frac": res.blocking_frac,
        "occupancy_hist": res.occupancy_hist,
        "accepted_frac_by_state": res.accepted_frac_by_state,
        "prices": np.asarray(prices, dtype=float),
    }
    if theta is not None:
        payload["theta_analytic"] = theta
    _emit(
        payload,
        args,
        f"simulated revenue rate {res.revenue_rate_mean:.4f} "
        f"+/- {res.revenue_rate_ci_half:.4f} (95% CI, {args.reps} reps)",
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    try:
        grid = [float(x) for x in args.grid.split(",")]
    except ValueError:
        raise ConfigError("grid", f"expected comma-separated numbers, got '{args.grid}'") from None
    try:
        rows = mdp_poisson.sweep(spec, args.vary, grid)
    except ValueError as exc:
        raise ConfigError("sweep", str(exc)) from None
    if args.format == "csv":
        kmax = max(r.result.prices.shape[0] for r in rows)
        header = ["param", "value", "theta_star", "theta_over_value"] + [
            f"p_{i}" for i in range(kmax)
        ]
        table = []
        for r in rows:
            padded = list(r.result.prices) + [""] * (kmax - len(r.result.prices))
            table.append([r.param, r.value, r.theta_star, r.ratio] + padded)
        _emit_csv(header, table, args, f"swept {args.vary} over {len(rows)} points")
    else:
        _emit(
            [
                {
                    "param": r.param,
                    "value": r.value,
                    "theta_star": r.theta_star,
                    "theta_over_value": r.ratio,
                    "prices": r.result.prices,
                }
                for r in rows
            ],
            args,
            f"swept {args.vary} over {len(rows)} points",
        )
    return 0


def _cmd_compare(args) -> int:
    spec = _spec_from_args(args)
    uni = uniform_pricing.optimize_uniform(spec.arrival, spec.valuation, spec.mu, spec.servers)
    rev_at_inf_price = uniform_pricing.revenue_uniform(
        spec.arrival, spec.valuation, spec.mu, spec.servers, uni.p_star_inf
    )
    theta, _ = _solver_for(spec)
    rows = [
        {"policy": "uniform-infinite-server-price", "price": uni.p_star_inf, "revenue": rev_at_inf_price},
        {"policy": "uniform-best", "price": uni.p_star_K, "revenue": uni.revenue_K},
        {"policy": "state-dependent", "price": None, "revenue": theta},
    ]
    if args.format == "csv":
        _emit_csv(
            ["policy", "price", "revenue"],
            [[r["policy"], "" if r["price"] is None else r["price"], r["revenue"]] for r in rows],
            args,
            f"revenues {rev_at_inf_price:.4f} <= {uni.revenue_K:.4f} <= {theta:.4f}",
        )
    else:
        _emit(
            {"rows": rows},
            args,
            f"revenues {rev_at_inf_price:.4f} <= {uni.revenue_K:.4f} <= {theta:.4f}",
        )
    return 0


def _cmd_figure(args) -> int:
    out = args.out or f"{args.id}.csv"
    path = emit_figure_data(args.id, out)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farm-pricer",
        description="Revenue-optimal admission prices for K-server loss systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file with a 'system' object")
        p.add_argument("--k", type=int, help="number of servers")
        p.add_argument("--lambda", dest="lam", type=float, help="Poisson arrival rate")
        p.add_argument("--mu", type=float, help="per-server service rate")
        p.add_argument("--valuation", help="valuation law, e.g. exp:1, pareto:2, uniform:0:2")
        p.add_argument(
            "--arrival", help="interarrival law, e.g. exp:25, det:25, uniform:25, two_point:1:0.5:2"
        )
        p.add_argument("--out", help="write structured output here instead of stdout")

    p = sub.add_parser("solve-poisson", help="state-dependent optimum, Poisson arrivals")
    add_common(p)
    p.add_argument("--precision", type=float, default=1e-9, help="theta bisection tolerance")
    p.set_defaults(fn=_cmd_solve_poisson)

    p = sub.add_parser("solve-general", help="state-dependent optimum, renewal arrivals")
    add_common(p)
    p.set_defaults(fn=_cmd_solve_general)

    p = sub.add_parser("uniform", help="best single price and optimality-gap bounds")
    add_common(p)
    p.set_defaults(fn=_cmd_uniform)

    p = sub.add_parser("evaluate", help="revenue and occupancy for an explicit price vector")
    add_common(p)
    p.add_argument("--prices", help="comma-separated p_0,...,p_{K-1}")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("simulate", help="discrete-event simulation at given or optimal prices")
    add_common(p)
    p.add_argument("--prices", help="comma-separated prices; omit to simulate the optimum")
    p.add_argument("--arrivals", type=int, default=200_000, help="arrivals per replication")
    p.add_argument("--warmup", type=int, default=None, help="warmup arrivals (default 10%%)")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--service", help="service law shorthand, e.g. det:2 (default exp at mu)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="re-solve along a lambda/mu/K grid")
    add_common(p)
    p.add_argument("--vary", required=True, choices=["lambda", "mu", "K"])
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--format", choices=["json", "csv"], default="json", help="output format")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("compare", help="uniform vs state-dependent revenue")
    add_common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json", help="output format")
    p.set_defaults(fn=_cmd_compare)

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
