#!/usr/bin/env python3
"""Time two quasik trees on one benchmark workload, interleaved in one process.

Usage, from the root of a checkout:

    python3 scripts/interleave.py --src A/src --src B/src --workload ordinary_sweep \\
        [--seed 1] [--reps 10]

Each --src is the src directory of one quasik tree.  The two are imported
as separate packages (quasik_a and quasik_b), so both run in this process.
Each repetition takes consecutive cycles of the workload's seeded ops from
perfbench/workloads.py, whole cycles until each tree has spent at least
MIN_SECONDS inside cli.main, and runs every op through both trees'
cli.main, one tree right after the other; which tree goes first alternates
from one repetition to the next.  Every answer is checked with the op's
own verify.  Timing both trees op by op in one process keeps host drift,
which two separate benchmark runs minutes apart read as a code effect, out
of the comparison.  The script prints each tree's ops/s per repetition
(ops over the summed time of its cli.main calls) with the cycles it took,
the median and quartiles over the repetitions, and how many repetitions
each tree won; it exits 1 if any answer is wrong or any call raises.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

MIN_SECONDS = 1.0   # least time each tree spends in cli.main per repetition


def load_cli(src: str, name: str):
    """The cli module of the quasik package under src, imported as `name`."""
    pkg = Path(src).resolve() / "quasik"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="src directory of a quasik tree; give exactly two")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=10,
                    help=f"repetitions, each at least {MIN_SECONDS:g} s per tree")
    args = ap.parse_args(argv)
    if len(args.src) != 2:
        ap.error("give --src exactly twice")
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    labels = ("A", "B")
    runners = [workloads.Runner(load_cli(src, f"quasik_{label.lower()}"))
               for src, label in zip(args.src, labels)]
    rates = ([], [])
    cycles = []
    c = 0
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.workload(args.workload, args.seed, Path(tmp))
        warm = wl.warmup()
        for r in runners:
            r.run(warm)
        for rep in range(args.reps):
            first = [r.attempted for r in runners]
            turn = (0, 1) if rep % 2 == 0 else (1, 0)
            spent = [0.0, 0.0]
            ops = 0
            start = c
            while min(spent) < MIN_SECONDS:
                cycle = wl.cycle(c)
                c += 1
                for op in cycle:
                    for k in turn:
                        runners[k].run(op)
                ops += len(cycle)
                spent = [sum(r.latencies[first[k]:]) for k, r in enumerate(runners)]
            cycles.append(c - start)
            for k in (0, 1):
                rates[k].append(ops / spent[k])
            print(f"rep {rep} ({labels[turn[0]]} first, {c - start} cycles, {ops} ops): "
                  + "  ".join(f"{labels[k]} {rates[k][-1]:.1f}" for k in (0, 1)) + " ops/s")

    print(f"workload {args.workload} seed {args.seed}: {args.reps} repetitions, "
          f"each at least {MIN_SECONDS:g} s per tree, "
          f"{min(cycles)}-{max(cycles)} cycles (median {statistics.median(cycles):g})")
    wins = [sum(x > y for x, y in zip(rates[k], rates[1 - k])) for k in (0, 1)]
    for k, (src, label) in enumerate(zip(args.src, labels)):
        q = statistics.quantiles(rates[k], n=4) if args.reps > 1 else [rates[k][0]] * 3
        print(f"  {label} {src}: median {q[1]:.1f} ops/s (quartiles {q[0]:.1f}-{q[2]:.1f}), "
              f"won {wins[k]} of {args.reps}")
    print(f"  B/A median ratio {statistics.median(rates[1]) / statistics.median(rates[0]):.3f}")
    ok = True
    for label, r in zip(labels, runners):
        for msg in r.wrong[:5]:
            print(f"  {label} WRONG {msg}")
        for msg, count in sorted(r.crashes.items()):
            print(f"  {label} escaped main {count}x: {msg}")
        ok = ok and r.correct and not r.crashes
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
