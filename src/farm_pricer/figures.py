"""The CSV data behind the shipped result figures.

Each figure id maps to a builder that solves a small family of systems and
returns (header, rows); emit_figure_data writes one of them as CSV.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import mdp_general, mdp_poisson, uniform_pricing
from .arrival import Deterministic, Exponential, UniformInterval
from .errors import ConfigError
from .model import SystemSpec
from .valuation import ExponentialValuation


def _write_text(path_like, text: str) -> Path:
    out = Path(path_like)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    except OSError as exc:
        raise ConfigError("out", f"cannot write {out}: {exc}") from None
    return out


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.10g}"
    return "" if x is None else str(x)


def _csv_text(header, rows) -> str:
    """Comma-joined lines, floats to 10 significant digits and None blank."""
    lines = [",".join(header)] + [",".join(_csv_cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


_FIGURES = {}


def _figure(fid):
    def wrap(fn):
        _FIGURES[fid] = fn
        return fn

    return wrap


def _poisson_spec(k: int, lam: float, mu: float) -> SystemSpec:
    return SystemSpec(
        servers=k,
        mu=mu,
        arrival=Exponential(rate=lam),
        valuation=ExponentialValuation(beta=1.0),
    )


@_figure("opt-pri-exp")
def _fig_opt_pri_exp():
    """Optimal prices per state for three interarrival laws at rate 25."""
    base = _poisson_spec(5, 25.0, 2.0)
    exp_res = mdp_poisson.fixed_point(base)
    det = mdp_general.solve_general(
        SystemSpec(5, 2.0, Deterministic(rate=25.0), base.valuation)
    )
    uni = mdp_general.solve_general(
        SystemSpec(5, 2.0, UniformInterval.from_rate(25.0), base.valuation)
    )
    header = ["state", "constant", "uniform", "exponential"]
    rows = [
        [i, det.prices[i], uni.prices[i], exp_res.prices[i]] for i in range(5)
    ]
    return header, rows


@_figure("lam-rev")
def _fig_lam_rev():
    rows = mdp_poisson.sweep(_poisson_spec(5, 25.0, 2.0), "lambda", [10, 15, 20, 25, 30])
    return ["lambda", "theta_star", "theta_over_lambda"], [
        [r.value, r.theta_star, r.ratio] for r in rows
    ]


@_figure("mu-rev")
def _fig_mu_rev():
    rows = mdp_poisson.sweep(_poisson_spec(5, 25.0, 2.0), "mu", [1, 2, 3, 4, 5])
    return ["mu", "theta_star", "theta_over_mu"], [
        [r.value, r.theta_star, r.ratio] for r in rows
    ]


@_figure("serv-rev")
def _fig_serv_rev():
    rows = mdp_poisson.sweep(_poisson_spec(5, 25.0, 2.0), "K", [3, 4, 5, 6, 7])
    return ["servers", "theta_star", "theta_over_servers"], [
        [int(r.value), r.theta_star, r.ratio] for r in rows
    ]


def _load_comparison(k: int, mu: float, rhos: list[float]):
    header = ["rho", "lambda", "revenue_uniform_inf_price", "revenue_uniform_best", "revenue_optimal"]
    rows = []
    for rho in rhos:
        lam = rho * mu
        spec = _poisson_spec(k, lam, mu)
        uni = uniform_pricing.optimize_uniform(spec.arrival, spec.valuation, mu, k)
        r_inf = uniform_pricing.revenue_uniform(spec.arrival, spec.valuation, mu, k, uni.p_star_inf)
        theta = mdp_poisson.fixed_point(spec).theta_star
        rows.append([rho, lam, r_inf, uni.revenue_K, theta])
    return header, rows


@_figure("five-servers")
def _fig_five_servers():
    return _load_comparison(5, 2.0, [0.5, 1.0, 5.0, 10.0])


@_figure("ten-servers")
def _fig_ten_servers():
    return _load_comparison(10, 2.0, [5.0, 10.0, 15.0, 25.0])


@_figure("rev-vs-k")
def _fig_rev_vs_k():
    """Finite-K optimal revenue closing on the infinite-server level lambda/e."""
    mu = 2.0
    lam = 20.0
    limit, _ = mdp_poisson.infinite_server_limit(_poisson_spec(5, lam, mu))
    rows = []
    for k in range(5, 11):
        theta = mdp_poisson.fixed_point(_poisson_spec(k, lam, mu)).theta_star
        rows.append([k, theta, limit])
    return ["servers", "theta_star", "infinite_server_revenue"], rows


def emit_figure_data(figure_id: str, out_path) -> Path:
    """Write the CSV behind one of the shipped result figures."""
    if figure_id not in _FIGURES:
        raise ConfigError("id", f"'{figure_id}' not in {sorted(_FIGURES)}")
    return _write_text(out_path, _csv_text(*_FIGURES[figure_id]()))
