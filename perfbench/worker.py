"""One workload process of the farm-pricer benchmark (started by run.py).

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only] [--spans FILE]

Set-up imports farm_pricer from the checkout's src/, builds the inputs from
SEED and runs one warm-up op, then prints `READY <time.monotonic()>`.  The
timed loop runs ops in order, one at a time, in whole blocks, for about
SECONDS.
With TRACE=1 each op runs twice in a row, untraced and then with the tracer
installed, for about SECONDS in all.  The last stdout line is one JSON
object.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import farm_pricer  # noqa: E402

if not Path(farm_pricer.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"farm_pricer was imported from {farm_pricer.__file__}, not from {ROOT / 'src'}")

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def timed_loop(wl, seconds: float, tr=None) -> tuple[list, list]:
    """(op, outcome, latency in s) for whole blocks of ops run back to back.

    Another block starts only while it would end nearer to `seconds` than
    stopping now, so a run lasts `seconds` give or take half a block.  With
    a tracer, each op runs again right after, with the tracer installed,
    and these runs form the second list: pairing the two runs of an op
    keeps drift in the host's speed out of tracing.overhead_frac.
    """
    records, traced = [], []
    start = time.perf_counter()
    for block in wl.blocks:
        t0 = time.perf_counter()
        for op in block:
            records.append((op, *_timed(wl, op, False)))
            if tr is not None:
                tr.install()
                try:
                    traced.append((op, *_timed(wl, op, True)))
                finally:
                    tr.uninstall()
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            break
    return records, traced


def import_times() -> dict:
    """Cumulative import time in ms per module of `import farm_pricer.cli`, fresh process."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import farm_pricer.cli"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    found = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in tracer.IMPORT_MODULES and parts[1].isdigit():
            found[parts[2]] = int(parts[1]) / 1e3
    return found


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None

    wl = workloads.build(name, seed, ROOT)
    wl.warmup()
    print(f"READY {time.monotonic():.9f}", flush=True)
    if setup_only:
        wl.finish(False)
        return 0

    tr = tracer.Tracer() if trace else None
    records, traced_records = timed_loop(wl, seconds, tr)
    problems = wl.finish(False)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # cli-cold: the workload process only launches children, so their peak counts
    peak_kb = child_rss if isinstance(wl, workloads.CliWorkload) else self_rss
    sim_rates = list(getattr(wl, "call_rates", []))

    result = {
        "ops": [
            {
                "latency_s": dt,
                "ok": out.ok,
                "reason": out.reason,
                "params": wl.describe(op),
            }
            for op, out, dt in records
        ],
        "problems": problems,
        "peak_rss_mb": peak_kb / 1024.0,
        "sim_call_rates": sim_rates,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }

    if trace:
        export = tr.export()
        for part in getattr(wl, "trace_parts", []):  # cli-cold: traced in each child
            tracer.merge(export, part)
        for (op, out, _), (_, tout, _) in zip(records, traced_records):
            if out.signature != tout.signature:
                problems.append(f"traced op differs from untraced op: {wl.describe(op)}")
        problems.extend(wl.finish(True))
        untraced_s = sum(dt for _, _, dt in records)
        traced_s = sum(dt for _, _, dt in traced_records)
        children = getattr(wl, "children", [])
        result["trace"] = {
            "stats": export["stats"],
            "counters": export["counters"],
            "absent": export["absent"],
            "spans_kept": len(export["spans"]),
            "spans_dropped": export["dropped"],
            "overhead_frac": traced_s / untraced_s - 1.0,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "imports_ms": import_times(),
            "cli_import_ms": [c["import_ms"] for c in children],
            "cli_command_ms": [c["command_ms"] for c in children],
            "traced_failed": sum(not out.ok for _, out, _ in traced_records),
        }
        if spans_path:
            with open(spans_path, "w") as f:
                json.dump({"spans": export["spans"], "dropped": export["dropped"]}, f)

    print(json.dumps(result), flush=True)
    return 0


def _timed(wl, op, traced: bool) -> tuple:
    t0 = time.perf_counter()
    out = wl.run(op, traced)
    return out, time.perf_counter() - t0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
