"""One cold set-up of a workload, timed from before the first import:
imports, seeded input generation and the first-call warm-up.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed time in seconds at reference speed (see timing.py).
run.py starts it several times in fresh processes and reports the
median as ``setup_s``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2])).warm_up()
elapsed = time.perf_counter() - START

import timing  # noqa: E402

print(repr(elapsed * timing.speed_scale()))
