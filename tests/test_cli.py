"""End-to-end command-line coverage: exit codes, formats, figure data."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import farm_pricer
import farm_pricer.cli
from farm_pricer.cli import _spec_from_args, build_parser, run
from farm_pricer.model import _LAWS, _LISTS

BASE = ["--k", "5", "--lambda", "25", "--mu", "2", "--valuation", "exp:1"]
NO_ARRIVAL = ["--k", "5", "--mu", "2", "--valuation", "exp:1"]  # BASE without --lambda


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


# ----------------------------------------------------------------- solving

def test_solve_poisson_json(tmp_path):
    data = run_json(tmp_path, ["solve-poisson", *BASE])
    assert data["theta_star"] == pytest.approx(7.7261906, abs=1e-5)
    np.testing.assert_allclose(
        data["prices"], (1.1743, 1.2204, 1.2954, 1.4349, 1.7726), atol=5e-4
    )


def test_module_entry_point_runs_without_warnings(tmp_path):
    # the package must not import its cli module, or runpy warns on `-m`
    src = str(Path(farm_pricer.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "sp.json"
    proc = subprocess.run(
        [sys.executable, "-m", "farm_pricer.cli", "solve-poisson", *BASE, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(out.read_text())["theta_star"] == pytest.approx(7.7261906, abs=1e-5)


def test_solve_general_with_arrival_flag(tmp_path):
    argv = ["solve-general", "--k", "5", "--arrival", "det:25", "--mu", "2",
            "--valuation", "exp:1"]
    data = run_json(tmp_path, argv)
    assert data["theta_star"] == pytest.approx(7.904175, abs=1e-5)
    assert max(abs(r) for r in data["residuals"]) < 1e-8


def test_evaluate_round_trip(tmp_path):
    solved = run_json(tmp_path, ["solve-poisson", *BASE], "a.json")
    prices = ",".join(f"{p:.12g}" for p in solved["prices"])
    data = run_json(tmp_path, ["evaluate", *BASE, "--prices", prices], "b.json")
    assert data["revenue_rate"] == pytest.approx(solved["theta_star"], rel=1e-9)
    # pi_0..pi_K sums to 1, and its last entry is the blocking probability pi_K
    assert sum(data["occupancy"]) == pytest.approx(1.0, rel=1e-9)
    spec = _spec_from_args(build_parser().parse_args(["evaluate", *BASE]))
    pi = farm_pricer.evaluate(spec, [float(p) for p in prices.split(",")]).pi
    assert len(data["occupancy"]) == 6
    assert data["occupancy"][-1] == pi[5] == pytest.approx(0.0894084, abs=1e-7)


def test_evaluate_round_trip_renewal(tmp_path):
    # renewal arrivals: evaluate goes through the embedded chain
    argv = ["--k", "5", "--arrival", "det:25", "--mu", "2", "--valuation", "exp:1"]
    solved = run_json(tmp_path, ["solve-general", *argv], "a.json")
    prices = ",".join(f"{p:.17g}" for p in solved["prices"])
    data = run_json(tmp_path, ["evaluate", *argv, "--prices", prices], "b.json")
    assert data["revenue_rate"] == pytest.approx(solved["theta_star"], rel=1e-9)


def test_uniform_command(tmp_path):
    data = run_json(tmp_path, ["uniform", *BASE])
    assert data["p_star_inf"] == pytest.approx(1.0, abs=1e-9)
    assert data["revenue_inf_bound"] == pytest.approx(25.0 / math.e, rel=1e-9)
    assert data["revenue_K"] <= 7.7261906 <= data["gap_upper"]


def test_compare_matches_figure_bars(tmp_path):
    argv = ["compare", "--k", "5", "--lambda", "20", "--mu", "2", "--valuation", "exp:1"]
    data = run_json(tmp_path, argv)
    revs = {r["policy"]: r["revenue"] for r in data["rows"]}
    assert revs["uniform-infinite-server-price"] == pytest.approx(6.10, abs=0.02)
    assert revs["uniform-best"] == pytest.approx(6.46, abs=0.02)
    assert revs["state-dependent"] == pytest.approx(6.54, abs=0.02)


@pytest.mark.parametrize(
    "law, prices, revenues",
    [(["--lambda", "25"], [1.0, 1.416164576904012],
      [6.884360324400514, 7.6208012367775915, 7.726190669152491]),
     (["--arrival", "det:25"], [1.0, 1.3798416818434838],
      [7.152571660044435, 7.8086378000451715, 7.904174888462628])],
    ids=["poisson", "det"],
)  # fmt: skip
def test_compare_rows_are_pinned(tmp_path, law, prices, revenues):
    argv = ["compare", "--k", "5", "--mu", "2", "--valuation", "exp:1", *law]
    rows = run_json(tmp_path, argv)["rows"]
    assert [r["price"] for r in rows[:2]] == pytest.approx(prices, rel=1e-9)
    assert rows[2]["price"] is None
    assert [r["revenue"] for r in rows] == pytest.approx(revenues, rel=1e-9)


SIM = ["--arrivals", "2000", "--reps", "2"]


def _field_names(record):
    return [field.name for field in dataclasses.fields(record)]


@pytest.mark.parametrize(
    "argv, keys",
    [
        # the record commands print their result's fields, in order
        (["solve-poisson", *BASE], _field_names(farm_pricer.SolveResult)),
        (["solve-general", *BASE], _field_names(farm_pricer.SolveResult)),
        (["uniform", *BASE], _field_names(farm_pricer.UniformPricingResult)),
        (["evaluate", *BASE, "--prices", "1.2,1.2,1.3,1.45,1.8"],
         ["revenue_rate", "occupancy"]),
        # simulate prints the prices only when it solved them
        (["simulate", *BASE, *SIM],
         ["revenue_rate_mean", "revenue_rate_ci_half", "occupancy_hist",
          "accepted_frac_by_state", "prices", "theta_analytic"]),
        (["simulate", *BASE, *SIM, "--prices", "1.2,1.2,1.3,1.45,1.8"],
         ["revenue_rate_mean", "revenue_rate_ci_half", "occupancy_hist",
          "accepted_frac_by_state"]),
        (["compare", *BASE], ["rows"]),
    ],
    ids=["solve-poisson", "solve-general", "uniform", "evaluate", "simulate",
         "simulate-prices", "compare"],
)  # fmt: skip
def test_json_keys_in_order(tmp_path, argv, keys):
    assert list(run_json(tmp_path, argv)) == keys


def test_row_keys_in_order(tmp_path):
    rows = run_json(tmp_path, ["compare", *BASE], "c.json")["rows"]
    assert [list(r) for r in rows] == [["policy", "price", "revenue"]] * 3
    assert [r["policy"] for r in rows] == [
        "uniform-infinite-server-price", "uniform-best", "state-dependent"
    ]
    assert rows[2]["price"] is None
    sweep = ["sweep", *BASE, "--vary", "K", "--grid", "3,4", "--format", "json"]
    rows = run_json(tmp_path, sweep, "s.json")
    assert [list(r) for r in rows] == [
        ["param", "value", "theta_star", "theta_over_value", "prices"]
    ] * 2
    assert [len(r["prices"]) for r in rows] == [3, 4]


# ------------------------------------------------------------------- sweep

def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", *BASE, "--vary", "lambda", "--grid", "10,20,30",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:4] == ["param", "value", "theta_star", "theta_over_value"]
    assert len(lines) == 4
    thetas = [float(line.split(",")[2]) for line in lines[1:]]
    assert thetas == sorted(thetas)


def test_simulate_deterministic_output(tmp_path):
    argv = ["simulate", *BASE, "--arrivals", "20000", "--reps", "3", "--seed", "5"]
    a = run_json(tmp_path, argv, "s1.json")
    b = run_json(tmp_path, argv, "s2.json")
    assert a == b
    assert a["theta_analytic"] == pytest.approx(7.7261906, abs=1e-5)
    assert abs(a["revenue_rate_mean"] - a["theta_analytic"]) < 0.5


@pytest.mark.parametrize(
    "argv, summary",
    [(["solve-poisson", "--k", "3", "--mu", "1", "--lambda", "1e-9", "--valuation", "exp:1"],
      "theta* = 3.67879e-10 after 1 iterations, max residual 5.17e-26\n"),
     (["uniform", "--k", "3", "--mu", "1", "--lambda", "1", "--valuation", "exp:1e-300"],
      "best uniform price 1.01489e+300 earns 3.65806e+299\n")],
    ids=["light-traffic", "tiny-valuation-rate"],
)  # fmt: skip
def test_summary_keeps_significant_digits(tmp_path, capsys, argv, summary):
    run_json(tmp_path, argv)
    assert capsys.readouterr().err == summary


def test_simulate_one_replication_has_no_interval(tmp_path, capsys):
    data = run_json(tmp_path, ["simulate", *BASE, "--arrivals", "2000", "--reps", "1"])
    assert data["revenue_rate_ci_half"] == "inf"
    assert "+/- inf (95% CI, 1 reps)" in capsys.readouterr().err


# ------------------------------------------------------------------ figure

# Every figure's CSV, pinned value by value to 1e-9 relative.
FIGURE_CSV = {
    "opt-pri-exp": """\
state,constant,uniform,exponential
0,1.151484738,1.159801156,1.174259882
1,1.192208028,1.202561582,1.220417832
2,1.259247267,1.27263404,1.295427589
3,1.386370935,1.404544407,1.434875524
4,1.703656456,1.729993395,1.772619067
""",
    "lam-rev": """\
lambda,theta_star,theta_over_lambda
10,3.598765171,0.3598765171
15,5.174720147,0.3449813431
20,6.54077225,0.3270386125
25,7.726190669,0.3090476268
30,8.766153922,0.2922051307
""",
    "mu-rev": """\
mu,theta_star,theta_over_mu
1,5.980073291,5.980073291
2,7.726190669,3.863095335
3,8.47854726,2.82618242
4,8.827319252,2.206829813
5,8.996912927,1.799382585
""",
    "serv-rev": """\
servers,theta_star,theta_over_servers
3,5.888007435,1.962669145
4,6.950008167,1.737502042
5,7.726190669,1.545238134
6,8.277116766,1.379519461
7,8.652535027,1.236076432
""",
    "five-servers": """\
rho,lambda,revenue_uniform_inf_price,revenue_uniform_best,revenue_optimal
0.5,1,0.3678789041,0.3678789041,0.3678789143
1,2,0.7357302857,0.7357302976,0.7357314149
5,10,3.575027541,3.588032064,3.598765171
10,20,6.105309575,6.468048002,6.54077225
""",
    "ten-servers": """\
rho,lambda,revenue_uniform_inf_price,revenue_uniform_best,revenue_optimal
5,10,3.678722985,3.678723031,3.678730619
10,20,7.334307847,7.335654235,7.340112831
15,30,10.70839999,10.78428482,10.83386121
25,50,15.13459786,16.46592715,16.69974213
""",
    "rev-vs-k": """\
servers,theta_star,infinite_server_revenue
5,6.54077225,7.357588823
6,6.905541592,7.357588823
7,7.126496787,7.357588823
8,7.249676697,7.357588823
9,7.311913319,7.357588823
10,7.340112831,7.357588823
""",
}


@pytest.mark.parametrize("fid", list(FIGURE_CSV))
def test_every_figure_emits(tmp_path, fid):
    out = tmp_path / f"{fid}.csv"
    assert run(["figure", "--id", fid, "--out", str(out)]) == 0
    (header, *got), (want_header, *want) = (
        [line.split(",") for line in text.strip().splitlines()]
        for text in (out.read_text(), FIGURE_CSV[fid])
    )
    assert header == want_header
    np.testing.assert_allclose(np.array(got, float), np.array(want, float), rtol=1e-9, atol=0)


def test_figure_command_writes_the_library_csv(tmp_path):
    # mu-rev is the library's mdp_general.sweep over mu, which `sweep` writes too
    assert run(["figure", "--id", "mu-rev", "--out", str(tmp_path / "fig.csv")]) == 0
    assert run(["sweep", *BASE, "--vary", "mu", "--grid", "1,2,3,4,5", "--format", "csv",
                "--out", str(tmp_path / "sweep.csv")]) == 0  # fmt: skip
    fig, lib = ((tmp_path / name).read_text().splitlines() for name in ("fig.csv", "sweep.csv"))
    assert fig[0] == "mu,theta_star,theta_over_mu"
    assert lib[0].startswith("param,value,theta_star,theta_over_value,")
    assert fig[1:] == [",".join(line.split(",")[1:4]) for line in lib[1:]]


def test_rev_vs_k_converges_to_infinite_server_level(tmp_path):
    path = tmp_path / "r.csv"
    assert run(["figure", "--id", "rev-vs-k", "--out", str(path)]) == 0
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    thetas = [float(r[1]) for r in rows]
    limit = float(rows[0][2])
    assert limit == pytest.approx(20.0 / math.e, rel=1e-9)
    assert thetas == sorted(thetas)
    assert thetas[-1] < limit
    assert limit - thetas[-1] < 0.03


def test_unknown_figure(tmp_path, capsys):
    assert run(["figure", "--id", "no-such-plot", "--out", str(tmp_path / "x.csv")]) == 2
    assert "'no-such-plot' not in ['five-servers'," in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_out_path_creates_parent_dirs(tmp_path):
    nested = tmp_path / "figs" / "deep" / "lam.csv"
    assert run(["figure", "--id", "lam-rev", "--out", str(nested)]) == 0
    assert nested.exists()
    # unwritable target is a config error, not a traceback
    assert run(["figure", "--id", "lam-rev", "--out", "/proc/nope/x.csv"]) == 2


# ------------------------------------------------------------ config files

def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({
        "system": {
            "servers": 5, "mu": 2.0, "lambda": 25.0,
            "valuation": {"kind": "exponential", "beta": 1.0},
        }
    }))
    base = run_json(tmp_path, ["solve-poisson", "--config", str(cfg)], "c1.json")
    assert base["theta_star"] == pytest.approx(7.7261906, abs=1e-5)
    overridden = run_json(
        tmp_path, ["solve-poisson", "--config", str(cfg), "--lambda", "10"], "c2.json"
    )
    assert overridden["theta_star"] < base["theta_star"]


def test_lambda_flag_replaces_the_config_files_arrival(tmp_path):
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps({
        "servers": 5, "mu": 2.0, "arrival": {"kind": "det", "rate": 25.0},
        "valuation": {"kind": "exp", "beta": 1.0},
    }))  # fmt: skip
    args = build_parser().parse_args(["solve-poisson", "--config", str(cfg), "--lambda", "25"])
    assert _spec_from_args(args).arrival == farm_pricer.Exponential(rate=25.0)
    data = run_json(tmp_path, ["solve-poisson", "--config", str(cfg), "--lambda", "25"])
    assert data == run_json(tmp_path, ["solve-poisson", *BASE], "flags.json")


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert run(["uniform", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config key 'system': config file must hold an object\n"


SAMPLE = {"rate": 4.0, "lo": 0.5, "hi": 1.5, "x1": 1.0, "p1": 0.25, "x2": 0.5,
          "beta": 2.0, "theta": 3.0}  # fmt: skip
OTHER = {"arrival": {"kind": "exp", "rate": 25.0}, "valuation": {"kind": "exp", "beta": 1.0}}
NAMES = [(family, kind, params) for family, forms in _LAWS.items()
         for kinds, _, params in forms if params != _LISTS for kind in kinds]  # fmt: skip


@pytest.mark.parametrize(
    "family, kind, params", NAMES, ids=[f"{f}-{k}-{len(p)}" for f, k, p in NAMES]
)
def test_config_and_flags_name_the_same_laws(tmp_path, family, kind, params):
    nums = [SAMPLE[p] for p in params]
    cfg = tmp_path / "law.json"
    law = {"kind": kind, **dict(zip(params, nums))}
    cfg.write_text(json.dumps({"servers": 3, "mu": 2.0, **OTHER, family: law}))
    flags = {"arrival": "exp:25", "valuation": "exp:1", family: ":".join([kind, *map(repr, nums)])}
    from_file = _spec_from_args(build_parser().parse_args(["uniform", "--config", str(cfg)]))
    from_flags = _spec_from_args(build_parser().parse_args(
        ["uniform", "--k", "3", "--mu", "2", *(f"--{k}={v}" for k, v in flags.items())]
    ))  # fmt: skip
    assert from_file == from_flags


def test_unparseable_shorthand_lists_the_table(capsys):
    assert run(["uniform", *BASE[:-1], "tabulated:0:1"]) == 2
    assert capsys.readouterr().err == (
        "config error: config key 'valuation': cannot parse 'tabulated:0:1'; "
        "use exp|exponential:beta, pareto:theta, uniform:lo:hi\n"
    )


# -------------------------------------------------------------- exit codes

def test_exit_code_on_bad_config():
    assert run(["uniform", "--k", "1", "--lambda", "0", "--mu", "2",
                "--valuation", "exp:1"]) == 2
    assert run(["solve-poisson", "--k", "5", "--mu", "2", "--valuation", "exp:1"]) == 2
    assert run(["solve-poisson", *BASE[:-1], "exp:abc"]) == 2
    assert run(["evaluate", *BASE]) == 2
    assert run(["evaluate", *BASE, "--prices", "1,2"]) == 2
    assert run(["no-such-command"]) == 2


@pytest.mark.parametrize(
    "argv, key",
    [
        (["solve-poisson", *NO_ARRIVAL, "--arrival", "det:25"], "arrival"),
        (["simulate", *BASE, "--reps", "0"], "simulate"),
        (["simulate", *BASE, "--arrivals", "10", "--warmup", "20"], "simulate"),
        (["evaluate", *BASE, "--prices", "1,1,1,1,-inf"], "prices"),
        (["simulate", *BASE, *SIM, "--seed", "-1"], "simulate"),
        (["uniform", *BASE, "--arrival", "det:25"], "arrival"),
        (["uniform", "--config", "no-such-dir/system.json"], "config"),
        (["uniform", "--config", __file__], "config"),
        (["sweep", *BASE, "--vary", "K", "--grid", "3,x"], "grid"),
        (["sweep", *BASE, "--vary", "K", "--grid", "3.5"], "sweep"),
        (["sweep", *BASE, "--vary", "K", "--grid", "3,inf"], "sweep"),
        (["uniform", *BASE[:-1], "uniform:2:1"], "valuation"),
        (["solve-poisson", "--k", "5", "--lambda", "25", "--mu", "0", "--valuation", "exp:1"],
         "mu"),
        (["solve-poisson", "--k", "5", "--lambda", "0", "--mu", "2", "--valuation", "exp:1"],
         "lambda"),
    ],
    ids=["renewal-arrivals", "zero-reps", "warmup-past-horizon", "minus-infinite-price",
         "negative-seed", "lambda-and-arrival", "unreadable-config", "config-not-json",
         "non-numeric-grid", "fractional-server-count", "infinite-grid-value",
         "uniform-valuation-reversed", "zero-mu", "zero-lambda"],
)  # fmt: skip
def test_invalid_input_is_a_config_error(argv, key, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: config key '{key}': ")


def test_bad_service_law_is_reported_under_service(capsys):
    assert run(["simulate", *BASE, "--service", "det:0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key 'service': rate must be positive")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["solve-general", *NO_ARRIVAL, "--arrival", "uniform:0"],
         "config key 'arrival': rate must be positive and finite, got 0.0"),
        (["simulate", *BASE, "--service", "uniform:0"],
         "config key 'service': rate must be positive and finite, got 0.0"),
        (["simulate", *NO_ARRIVAL, *SIM, "--arrival", "two_point:inf:0.5:0.01"],
         "config key 'arrival': atoms must be positive and finite, got inf and 0.01"),
        (["uniform", *NO_ARRIVAL, "--arrival", "two_point:inf:0.5:0.01"],
         "config key 'arrival': atoms must be positive and finite, got inf and 0.01"),
        (["uniform", *NO_ARRIVAL, "--arrival", "two_point:0.01:1.5:0.02"],
         "config key 'arrival': p1 must lie in (0, 1), got 1.5"),
        (["solve-general", *NO_ARRIVAL, "--arrival", "uniform:0.3:0.1"],
         "config key 'arrival': need 0 <= lo < hi < inf, got [0.3, 0.1]"),
    ],
    ids=["uniform-rate-0", "service-rate-0", "simulate-infinite-atom", "uniform-infinite-atom",
         "two-point-p1-above-1", "uniform-interval-reversed"],
)  # fmt: skip
def test_unrepresentable_interval_laws_are_config_errors(argv, err, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"


def test_config_uniform_rate_zero_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "u.json"
    cfg.write_text(json.dumps({"system": {
        "servers": 3, "mu": 2.0, "arrival": {"kind": "uniform", "rate": 0},
        "valuation": {"kind": "exponential", "beta": 1.0},
    }}))  # fmt: skip
    assert run(["solve-general", "--config", str(cfg)]) == 2
    assert "rate must be positive and finite" in capsys.readouterr().err


def test_format_only_on_sweep_and_compare(tmp_path):
    out = ["--out", str(tmp_path / "out"), "--format", "csv"]
    for argv in (
        ["solve-poisson", *BASE],
        ["solve-general", *BASE],
        ["uniform", *BASE],
        ["evaluate", *BASE, "--prices", "1.2,1.2,1.3,1.45,1.8"],
        ["simulate", *BASE, "--arrivals", "2000", "--reps", "2"],
    ):
        assert run(argv + out) == 2, argv[0]
    assert run(["compare", *BASE, *out]) == 0
    assert (tmp_path / "out").read_text().startswith("policy,price,revenue\n")


def test_exit_code_on_solver_failure(capsys):
    # no finite revenue maximizer under a tail with p Gbar(p) constant; the
    # error comes from m at the uniform grid end
    assert run(["uniform", "--k", "2", "--lambda", "5", "--mu", "2",
                "--valuation", "pareto:1"]) == 3
    assert capsys.readouterr().err.startswith("solver error: Pareto tail: ")
    assert run(["solve-poisson", "--k", "2", "--lambda", "5", "--mu", "2",
                "--valuation", "pareto:1"]) == 3


def test_compare_where_the_supremum_sits_at_the_tail_quantile(tmp_path):
    # p Gbar(p) reaches its supremum 500 at p = 5e11, a finite optimum
    cfg = tmp_path / "heavy.json"
    cfg.write_text(json.dumps({
        "servers": 3, "mu": 2, "arrival": {"kind": "exp", "rate": 5},
        "valuation": {"kind": "table", "xs": [0, 1, 1e12], "gs": [1, 2e-9, 0]},
    }))  # fmt: skip
    rows = run_json(tmp_path, ["compare", "--config", str(cfg)])["rows"]
    assert rows[1]["price"] == pytest.approx(5e11, rel=1e-6)
    # theta* is what the optimal prices earn, lambda m(0) here, never more;
    # the best uniform revenue may round one ulp above it
    theta, eps = rows[2]["revenue"], sys.float_info.epsilon
    table = farm_pricer.TabulatedTail((0, 1, 1e12), (1, 2e-9, 0))
    lam_m0 = 5 * farm_pricer.eval_m(table, 0.0).m_val
    assert rows[1]["revenue"] <= theta * (1 + 4 * eps)
    assert theta <= lam_m0 * (1 + 4 * eps)


def test_compare_on_a_knot_peaked_table_prints_its_revenues_in_order(tmp_path, capsys):
    # the best uniform price is the first knot; the grid alone missed it and
    # printed "revenues 96.13 <= 94.72 <= 96.13"
    cfg = tmp_path / "knots.json"
    cfg.write_text(json.dumps({
        "servers": 100, "mu": 2, "arrival": {"kind": "uniform", "rate": 33.90808423445827},
        "valuation": {"kind": "table",
                      "xs": [0, 3.1148336023849215, 3.131677760317614, 3.5524267208127176,
                             3.9982280262581162, 4.5771826913859],
                      "gs": [1, 0.9101414451111564, 0.8224708128094376, 0.7851713303122954,
                             0.6940383247166554, 0.2701370909596944]},
    }))  # fmt: skip
    assert run(["compare", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    revenues = [row["revenue"] for row in json.loads(out)["rows"]]
    assert revenues[0] <= revenues[1] <= revenues[2] * (1.0 + 1e-12)
    printed = [float(x) for x in err.split()[1::2]]
    assert printed == sorted(printed) and len(printed) == 3


@pytest.mark.parametrize("lam, mu, phi", [("1e20", "1", "1.0"), ("1e-300", "1e30", "0.0")])
def test_transform_rounding_out_of_the_unit_interval_exits_3(lam, mu, phi, capsys):
    assert run(["uniform", "--k", "3", "--lambda", lam, "--mu", mu,
                "--valuation", "exp:1"]) == 3
    assert f"= {phi} is not inside (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["140", "5000"])
def test_large_poisson_solves_are_certified(tmp_path, lam):
    # fixed_point printed max residual 2.84 (5.5e-2 theta*) at lambda=140,
    # and its g-chain overflows at 5000 (test_overflowing_chain_is_no_convergence)
    argv = ["solve-poisson", "--k", "1000", "--lambda", lam, "--mu", "2", "--valuation", "exp:1"]
    data = run_json(tmp_path, argv)
    assert max(map(abs, data["residuals"])) <= 1e-9 * data["theta_star"]


def test_no_command_calls_fixed_point(tmp_path, monkeypatch):
    # every optimum the CLI prints comes from solve_general; fixed_point,
    # however it is imported, looks up its g-chain in its module
    def refuse(*args):
        raise AssertionError("fixed_point called")

    monkeypatch.setattr(farm_pricer.mdp_general, "_chain", refuse)
    for argv in (["solve-poisson", *BASE], ["compare", *BASE], ["simulate", *BASE, *SIM],
                 ["sweep", *BASE, "--vary", "K", "--grid", "3,4"]):
        run_json(tmp_path, argv)
    for fid in FIGURE_CSV:
        assert run(["figure", "--id", fid, "--out", str(tmp_path / f"{fid}.csv")]) == 0
