"""Spans and per-function counters for the traced benchmark run.

The tracer wraps public functions of farm_pricer from outside: for each
target it rebinds every module-level name in the package that refers to the
original function, so calls made through `mdp_poisson.eval_m`,
`farm_pricer.fixed_point` or a sibling module's import all pass through the
wrapper.  Nothing under src/ is edited.  A target missing from the package
is listed in `absent` and otherwise ignored, so the benchmark keeps running
against commits that renamed or removed it.
"""

from __future__ import annotations

import importlib
import math
import sys
from time import perf_counter

PACKAGE = "farm_pricer"
MAX_SPANS = 50_000

TARGETS = (
    ("valuation", "eval_m"),
    ("valuation", "m_inverse"),
    ("arrival", "departure_matrix"),
    ("mdp_poisson", "fixed_point"),
    ("mdp_poisson", "g_chain"),
    ("mdp_general", "solve_general"),
    ("mdp_general", "g_chain_general"),
    ("uniform_pricing", "optimize_uniform"),
    ("uniform_pricing", "revenue_uniform"),
    ("uniform_pricing", "blocking_prob"),
    ("stationary", "revenue_rate"),
    ("stationary", "occupancy_poisson"),
    ("stationary", "occupancy_general"),
    ("simulator", "simulate"),
)
TARGET_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)
# Modules whose cumulative import time the traced run reports.
IMPORT_MODULES = ("farm_pricer", "farm_pricer.cli", "scipy.stats", "scipy.integrate")

# Counters read from a wrapped call's arguments or result.  Each reader
# returns None when the value is not there (a later commit may rename it).
COUNTERS = ("mdp_poisson.bisection_steps", "mdp_general.residual_max", "simulator.arrivals")


def _bisection_steps(args, out):
    return getattr(out, "iterations", None)


def _residual_max(args, out):
    res = getattr(out, "residuals", None)
    if res is None or len(res) == 0:
        return None
    return max(abs(float(r)) for r in res)


def _arrivals(args, out):
    cfg = args[0] if args else None
    horizon = getattr(cfg, "horizon_arrivals", None)
    reps = getattr(cfg, "replications", None)
    if horizon is None or reps is None:
        return None
    return int(horizon) * int(reps)


_READERS = {
    "mdp_poisson.fixed_point": ("mdp_poisson.bisection_steps", _bisection_steps),
    "mdp_general.solve_general": ("mdp_general.residual_max", _residual_max),
    "simulator.simulate": ("simulator.arrivals", _arrivals),
}
_COMBINE = {"mdp_general.residual_max": max}


def _add(counters: dict, name: str, value: float) -> None:
    combine = _COMBINE.get(name, float.__add__)
    counters[name] = combine(float(counters.get(name, 0.0)), float(value))


class Tracer:
    """Records one span per wrapped call and sums calls, busy, self time and failures.

    Spans are (id, name, start, end, parent id) tuples kept in memory up to
    MAX_SPANS; past that only the counters grow, and `dropped` counts the
    spans not kept.  Self time is a call's duration minus the time covered
    by wrapped calls made inside it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.absent: list[str] = []
        self.stats = {name: [0, 0.0, 0.0, 0] for name in TARGET_NAMES}
        self.counters = {name: 0.0 for name in COUNTERS}
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            orig = getattr(module, fn_name, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                mod_id = getattr(mod, "__name__", "")
                if mod_id != PACKAGE and not mod_id.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        reader = _READERS.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stat[3] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, t0, t1, parent))
                else:
                    self.dropped += 1
            if reader is not None:
                counter, read = reader
                value = read(args, out)
                if value is not None and math.isfinite(value):
                    _add(self.counters, counter, value)
            return out

        return traced

    def export(self) -> dict:
        """Counters and spans as plain JSON-able data."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
            "spans": [list(s) for s in self.spans],
            "dropped": self.dropped,
            "next_id": self._next_id,
        }


def merge(into: dict, part: dict) -> None:
    """Add one exported trace (e.g. from a CLI child) into another.

    Span ids of `part` are shifted past those of `into` so that they stay
    unique; spans beyond MAX_SPANS are counted in `dropped`.
    """
    for name, vals in part["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0.0, 0])
        for i, v in enumerate(vals):
            acc[i] += v
    for name, v in part["counters"].items():
        _add(into["counters"], name, v)
    into["absent"] = sorted(set(into["absent"]) | set(part["absent"]))
    base = into["next_id"]
    room = max(0, MAX_SPANS - len(into["spans"]))
    for sid, name, t0, t1, parent in part["spans"][:room]:
        into["spans"].append([sid + base, name, t0, t1, None if parent is None else parent + base])
    into["dropped"] += part["dropped"] + max(0, len(part["spans"]) - room)
    into["next_id"] = base + part["next_id"]
