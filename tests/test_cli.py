"""End-to-end command-line coverage: exit codes, formats, figure data."""

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
from farm_pricer import ConfigError, emit_figure_data
from farm_pricer.cli import run

BASE = ["--k", "5", "--lambda", "25", "--mu", "2", "--valuation", "exp:1"]


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
    assert data["bracket_width"] <= 1e-9


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
    assert farm_pricer.cli.emit_figure_data is emit_figure_data


def test_solve_general_with_arrival_flag(tmp_path):
    argv = ["solve-general", "--k", "5", "--arrival", "det:25", "--mu", "2",
            "--valuation", "exp:1"]
    data = run_json(tmp_path, argv)
    assert data["theta_star"] == pytest.approx(7.904175, abs=1e-5)
    assert max(abs(r) for r in data["residuals"]) < 1e-8


def test_precision_only_on_solve_poisson(tmp_path):
    general = ["solve-general", "--k", "5", "--arrival", "det:25", "--mu", "2",
               "--valuation", "exp:1", "--precision", "1e-6"]
    assert run(general + ["--out", str(tmp_path / "g.json")]) == 2
    data = run_json(tmp_path, ["solve-poisson", *BASE, "--precision", "1e-6"])
    assert 1e-9 < data["bracket_width"] <= 1e-6
    assert data["theta_star"] == pytest.approx(7.7261906, abs=1e-6)


def test_evaluate_round_trip(tmp_path):
    solved = run_json(tmp_path, ["solve-poisson", *BASE], "a.json")
    prices = ",".join(f"{p:.12g}" for p in solved["prices"])
    data = run_json(tmp_path, ["evaluate", *BASE, "--prices", prices], "b.json")
    assert data["revenue_rate"] == pytest.approx(solved["theta_star"], rel=1e-9)
    assert data["blocking"] == pytest.approx(data["occupancy"][-1], rel=1e-12)
    assert sum(data["occupancy"]) == pytest.approx(1.0, rel=1e-9)


def test_uniform_command(tmp_path):
    data = run_json(tmp_path, ["uniform", *BASE])
    assert data["p_star_inf"] == pytest.approx(1.0, abs=1e-9)
    assert data["revenue_inf_bound"] == pytest.approx(25.0 / math.e, rel=1e-9)
    assert data["gap_lower"] <= 7.7261906 <= data["gap_upper"]


def test_compare_matches_figure_bars(tmp_path):
    argv = ["compare", "--k", "5", "--lambda", "20", "--mu", "2", "--valuation", "exp:1"]
    data = run_json(tmp_path, argv)
    revs = {r["policy"]: r["revenue"] for r in data["rows"]}
    assert revs["uniform-infinite-server-price"] == pytest.approx(6.10, abs=0.02)
    assert revs["uniform-best"] == pytest.approx(6.46, abs=0.02)
    assert revs["state-dependent"] == pytest.approx(6.54, abs=0.02)


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


# ------------------------------------------------------------------ figure

@pytest.mark.parametrize(
    "fid",
    ["opt-pri-exp", "lam-rev", "mu-rev", "serv-rev", "five-servers", "ten-servers", "rev-vs-k"],
)
def test_every_figure_emits(tmp_path, fid):
    out = tmp_path / f"{fid}.csv"
    assert run(["figure", "--id", fid, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) >= 4


def test_rev_vs_k_converges_to_infinite_server_level(tmp_path):
    path = emit_figure_data("rev-vs-k", tmp_path / "r.csv")
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    thetas = [float(r[1]) for r in rows]
    limit = float(rows[0][2])
    assert limit == pytest.approx(20.0 / math.e, rel=1e-9)
    assert thetas == sorted(thetas)
    assert thetas[-1] < limit
    assert limit - thetas[-1] < 0.03


def test_unknown_figure(tmp_path):
    assert run(["figure", "--id", "no-such-plot", "--out", str(tmp_path / "x.csv")]) == 2
    with pytest.raises(ConfigError):
        emit_figure_data("no-such-plot", tmp_path / "y.csv")


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
    "argv",
    [
        ["solve-poisson", *BASE, "--precision", "0"],
        ["solve-poisson", *BASE, "--arrival", "det:25"],
        ["simulate", *BASE, "--reps", "0"],
        ["simulate", *BASE, "--arrivals", "10", "--warmup", "20"],
    ],
    ids=["zero-precision", "renewal-arrivals", "zero-reps", "warmup-past-horizon"],
)
def test_invalid_input_is_a_config_error(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_bad_service_law_is_reported_under_service(capsys):
    assert run(["simulate", *BASE, "--service", "det:0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key 'service': rate must be positive")


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


def test_exit_code_on_solver_failure():
    # no finite revenue maximizer under a tail with p Gbar(p) constant
    assert run(["uniform", "--k", "2", "--lambda", "5", "--mu", "2",
                "--valuation", "pareto:1"]) == 3
    assert run(["solve-poisson", "--k", "2", "--lambda", "5", "--mu", "2",
                "--valuation", "pareto:1"]) == 3


def test_overflowing_poisson_chain_exits_3(capsys):
    # the g-chain overflows the floats: a solver error, not a traceback
    assert run(["solve-poisson", "--k", "1000", "--lambda", "5000", "--mu", "2",
                "--valuation", "exp:1"]) == 3
    assert "solver error" in capsys.readouterr().err
