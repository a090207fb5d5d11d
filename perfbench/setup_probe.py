"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

Imports the package the way the workload does, builds the first op's
inputs, and prints at that moment its own CPU seconds (user + system since
the process started) and the system-wide monotonic clock, so the parent
can time interpreter start -> import -> inputs -> ready in both.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
workload.op_input(0)
print(repr(time.process_time()), repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
