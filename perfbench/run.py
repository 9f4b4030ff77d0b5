"""farm-pricer benchmark: certified pricing jobs, simulator throughput and cold CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of poisson-exp, cli-cold, known-defects, simulate, renewal-mixed,
or `all`: the first three, which are the ones BENCHMARK.json lists and the
one that shows the solvers' known failures.  simulate and renewal-mixed are
run by hand (see perfbench/README.md).
Run it from anywhere; it benchmarks the checkout it sits in (src/ next to
perfbench/) and writes nothing outside that checkout.

Each workload runs in a fresh worker process (perfbench/worker.py): one
caller, closed loop, one op at a time, FARM_PRICER_THREADS unset and every
BLAS/OpenMP pool at one thread.  Set-up is timed from spawning a worker to
its READY line, i.e. interpreter start, `import farm_pricer`, input
generation and one warm-up op; it is repeated SETUP_SAMPLES times (the extra
workers stop after set-up) and the median is reported.  Bytecode caches are
compiled first, as an installed package would have them.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the per-layer metrics from the tracer (perfbench/tracer.py).  The
full record (machine, versions, every failing op, tail percentile and sample
counts, spans) goes to perfbench/results/.  Exit status is 0 when a result
was printed, 2 when the checkout has no farm_pricer sources, 1 when a worker
failed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "results"
WORKLOADS = ("poisson-exp", "cli-cold", "known-defects", "simulate", "renewal-mixed")
ALL = WORKLOADS[:3]
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0
# The tail is the highest percentile with 10 ops beyond it, so it rests on
# more than one slow op; on a run of 24 cold CLI processes that is p58, and
# the results record gives the percentile.  A failed op counts as +inf
# there and in the median, so turning a failure into a success never reads
# as a regression.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in tracer.TARGET_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.failures"] = "count"
    units["mdp_poisson.bisection_steps"] = "count"
    units["mdp_general.residual_max"] = "1"
    units["simulator.arrivals"] = "count"
    units["simulator.arrivals_per_s"] = "1/s"
    for mod in tracer.IMPORT_MODULES:
        units[f"import.{mod}_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.command_ms"] = "ms"
    units["tracing.overhead_frac"] = "1"
    return units


def child_env() -> dict:
    """Environment of every process the benchmark starts: one thread each, src/ on the path."""
    env = dict(os.environ)
    env.pop("FARM_PRICER_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def start_worker(workload: str, seed: int, seconds: float, trace: int, extra: list[str]):
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, str(seed),
           str(seconds), str(trace), *extra]  # fmt: skip
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    return proc, t_spawn


def finish_worker(proc, t_spawn: float) -> tuple[float, list[str]]:
    """Wait for a worker; returns (set-up seconds, stdout lines after the READY line)."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, t_spawn + WORKER_TIMEOUT_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker ran over {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = out.splitlines()
    ready = [i for i, line in enumerate(lines) if line.startswith("READY ")]
    if not ready:
        raise RuntimeError("worker never finished set-up")
    setup = float(lines[ready[0]].split()[1]) - t_spawn
    return setup, lines[ready[0] + 1 :]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of a non-empty list of latencies."""
    n = len(latencies)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return sorted(latencies)[idx], (idx + 1) / n, n - idx - 1


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, t_spawn = start_worker(workload, seed, seconds, trace, ["--setup-only"])
        setups.append(finish_worker(proc, t_spawn)[0])
    spans_path = RESULTS / f"{workload}-seed{seed}-spans.json"
    proc, t_spawn = start_worker(workload, seed, seconds, trace, ["--spans", str(spans_path)] if trace else [])
    setup, out = finish_worker(proc, t_spawn)
    setups.append(setup)
    if not out:
        raise RuntimeError("worker printed no result")
    result = json.loads(out[-1])

    ops = result["ops"]
    failed = [op for op in ops if not op["ok"]]
    lat_inf = [op["latency_s"] if op["ok"] else math.inf for op in ops]
    tail_value, tail_pct, tail_beyond = tail(lat_inf)
    rates = result["sim_call_rates"]
    summary = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "op_p50_ms": (statistics.median(lat_inf) * 1e3, "ms", len(ops)),
        "op_tail_ms": (tail_value * 1e3, "ms", len(ops)),
        "op_fail_frac": (len(failed) / len(ops), "1", len(ops)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }
    if rates:
        summary["sim_arrivals_per_s"] = (statistics.median(rates), "1/s", len(rates))

    problems = list(result["problems"])
    attempted, n_failed = len(ops), len(failed)
    if trace:
        layer = layer_metrics(result["trace"])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        n_failed += result["trace"]["traced_failed"]
        attempted *= 2
    else:
        metrics = {k: {"value": summary[k][0], "unit": summary[k][1]} for k in END_TO_END}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "versions": result["versions"],
        "source": source_identity(),
        "summary": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in summary.items()},
        "setup_samples_s": setups,
        "tail": {"percentile": tail_pct, "n": len(ops), "beyond": tail_beyond},
        "failing_ops": failed,
        "ops": [{"latency_ms": op["latency_s"] * 1e3, "ok": op["ok"], "params": op["params"]} for op in ops],
        "problems": problems,
        "metrics": metrics,
    }
    if trace:
        record["trace_data"] = result["trace"]
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": not problems and not n_failed,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
        "record": record,
    }


def layer_metrics(tr: dict) -> dict:
    units = per_layer_units()
    values = {}
    for name in tracer.TARGET_NAMES:
        calls, busy, self_s, failures = tr["stats"].get(name, [0, 0.0, 0.0, 0])
        values[f"{name}.calls"] = calls
        values[f"{name}.busy_ms"] = busy * 1e3
        values[f"{name}.self_ms"] = self_s * 1e3
        values[f"{name}.failures"] = failures
    for name in tracer.COUNTERS:
        values[name] = tr["counters"].get(name, 0.0)
    sim_busy_s = values["simulator.simulate.busy_ms"] / 1e3
    values["simulator.arrivals_per_s"] = values["simulator.arrivals"] / sim_busy_s if sim_busy_s else 0.0
    for mod in tracer.IMPORT_MODULES:
        values[f"import.{mod}_ms"] = tr["imports_ms"].get(mod, 0.0)
    values["cli.import_ms"] = statistics.median(tr["cli_import_ms"]) if tr["cli_import_ms"] else 0.0
    values["cli.command_ms"] = statistics.median(tr["cli_command_ms"]) if tr["cli_command_ms"] else 0.0
    values["tracing.overhead_frac"] = tr["overhead_frac"]
    return {k: (values[k], units[k]) for k in units}


def print_summary(out: dict) -> None:
    rec = out["record"]
    print(
        f"{rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
        f"{out['attempted']} ops, {out['failed']} failed"
    )
    for name, m in rec["summary"].items():
        print(f"  {name:<20} {m['value']:>14.6g} {m['unit']:<5} n={m['n']}")
    t = rec["tail"]
    print(f"  (op_tail_ms is p{100 * t['percentile']:.1f} of {t['n']} ops, {t['beyond']} beyond)")
    for op in rec["failing_ops"][:8]:
        print(f"  FAILED {json.dumps(op['params'])}: {op['reason']}")
    if len(rec["failing_ops"]) > 8:
        print(f"  ... {len(rec['failing_ops']) - 8} more failing ops in perfbench/results/")
    for problem in rec["problems"]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "farm_pricer" / "__init__.py").is_file():
        print(f"no farm_pricer sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    RESULTS.mkdir(parents=True, exist_ok=True)

    names = ALL if args.workload == "all" else (args.workload,)
    outs = {}
    for name in names:
        try:
            outs[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print_summary(outs[name])

    if len(names) == 1:
        final = {k: outs[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{n}.{k}": v for n, o in outs.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
