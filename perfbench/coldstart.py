"""One cold set-up of a workload in a fresh interpreter: a setup_s sample.

run.py starts this once per sample, from the root of a checkout:

    python3 perfbench/coldstart.py <workload> <seed> <workdir>

It times importing quasik (first, so it pays for every module quasik
needs), generating the first cycle of the workload's seeded inputs and
one warm-up op, and prints {"seconds": ..., "wrong": [...]} as its last
line.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))
from quasik import cli  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import json  # noqa: E402

import workloads  # noqa: E402

_, _, warm = workloads.set_up(cli, sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
seconds = time.perf_counter() - START
print(json.dumps({"seconds": seconds, "wrong": warm.wrong}))
