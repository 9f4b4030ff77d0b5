"""Run one farm-pricer CLI command with the tracer installed.

    python perfbench/cli_child.py TRACE_OUT.json <farm-pricer arguments...>

The traced cli-cold run starts this in place of `python -m farm_pricer.cli`
and follows the same path: `import farm_pricer` (which imports its cli
module), then runpy runs farm_pricer.cli as __main__.  It times the import
and the command separately and writes them, with the tracer's counters and
spans, to TRACE_OUT.json.
"""

import json
import runpy
import sys
from time import perf_counter

t_start = perf_counter()
import farm_pricer  # noqa: E402,F401

t_imported = perf_counter()

from tracer import Tracer  # noqa: E402  (this file's directory is sys.path[0])

out_path = sys.argv[1]
sys.argv = [sys.argv[0], *sys.argv[2:]]
tracer = Tracer()
tracer.install()
t_command = perf_counter()
try:
    runpy.run_module("farm_pricer.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
t_end = perf_counter()
tracer.uninstall()

data = tracer.export()
data["timing"] = {
    "import_ms": (t_imported - t_start) * 1e3,
    "command_ms": (t_end - t_command) * 1e3,
}
with open(out_path, "w") as f:
    json.dump(data, f)
sys.exit(code)
