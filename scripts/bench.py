#!/usr/bin/env python3
"""Time quasik commands on a ladder of growing manifolds; write BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 scripts/bench.py --label NAME [--src DIR]

The ladder comes from perfbench/gen.py: cube6, bott6, cp10 and poly20,
each given a height by with_height(M, Random(1)).  On each rung six
commands run in process through quasik.cli.main: `proptest --cases 10`,
`facering --ordinary`, the same with `--json` (so the cost of rendering
the report shows), `interpolate` in text and with `--json`, and
`membership`; the last three read one phi(P), with P a seeded random
face element and phi(P) computed by perfbench/check.py, not by quasik.
A seventh row, `interpolate --json, kept`, times a second call on a path
that one untimed call has just read, so the document is kept: the
repeated-document cost that the interp_roundtrip workload measures, next
to the one-shot cost of the row before it.  Every command runs 3 times
plain, for the end-to-end wall time, and 3 times with twelve layers
wrapped, for their call counts and their self and total times:
substitute_monomial_map, divides_one_minus, phi, in_w, interpolate,
basis_certificate, snf_diagonal, the dense snf it runs on the block its
unit pivots leave, OrdinaryKModel.__init__,
cli._render, which writes the --json report or, without --json, builds
and returns the text report, SimplePolytope.minimal_nonfaces, the
non-face search that facering runs once per polytope, and
validate_characteristic, which finds every vertex's dual basis once per
document.
cube7, bott7, poly40 (the densest ordinary-model rows), a cube3 cut at
three vertices by gen.truncate and polygon6xcp2 (a gen.product of a
hexagon and CP^2) follow, each command run once (marked as a single run),
since the larger proptests take seconds.  cube9 (m = 512) and bott9, the
scaling wall of the ordinary model, cp15, whose last basis element has 15
extra facets, and poly80 and poly160, whose reports list d restriction
tuples over m = d vertices and whose models are mostly killed columns,
close the ladder with one single run of `facering --ordinary --json`
each; the other commands would take minutes there.  The file, written to
the root of this checkout, holds the medians, every sample, a digest and
the byte size of each command's output and the machine facts.

Each sample writes the document to a new path first.  cli.main keeps
the parsed, checked document of an input whose path and text it has seen
(at most 16), so a second run on one path would skip that work; with a
new path every sample, each command on each rung but the kept row is
timed as a first sight of its document, as in the files of earlier
commits.

--src points at the src directory of the quasik to measure (default:
this checkout's), so one copy of this script can time another commit.
The parent's and the change's files are separate runs minutes apart, so
host drift between them reads as a code effect; compare the wall times
of two trees with scripts/interleave.py, which runs them op by op in one
process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
import gen  # noqa: E402

LADDER = {
    "cube6": lambda: gen.cube(6),
    "bott6": lambda: gen.bott(6, random.Random(6)),
    "cp10": lambda: gen.cp(10),
    "poly20": lambda: gen.polygon(20, random.Random(20)),
}
TAIL = {
    "cube7": lambda: gen.cube(7),
    "bott7": lambda: gen.bott(7, random.Random(7)),
    "poly40": lambda: gen.polygon(40, random.Random(40)),
    "cube3_cut3": lambda: gen.truncate(gen.truncate(gen.truncate(gen.cube(3), 0), 1), 2),
    "polygon6xcp2": lambda: gen.product(gen.polygon(6, random.Random(6)), gen.cp(2)),
}
WALL = {
    "cube9": lambda: gen.cube(9),
    "bott9": lambda: gen.bott(9, random.Random(9)),
    "cp15": lambda: gen.cp(15),
    "poly80": lambda: gen.polygon(80, random.Random(80)),
    "poly160": lambda: gen.polygon(160, random.Random(160)),
}
RUNS = 3

COMMANDS = {
    "proptest --cases 10": lambda doc, tup: ["proptest", doc, "--cases", "10"],
    "facering --ordinary": lambda doc, tup: ["facering", doc, "--ordinary"],
    "facering --ordinary --json": lambda doc, tup: ["facering", doc, "--ordinary", "--json"],
    "interpolate": lambda doc, tup: ["interpolate", doc, tup],
    "interpolate --json": lambda doc, tup: ["interpolate", doc, tup, "--json"],
    "interpolate --json, kept": lambda doc, tup: ["interpolate", doc, tup, "--json"],
    "membership": lambda doc, tup: ["membership", doc, tup],
}
# rows whose every sample follows an untimed call on the same path
KEPT = {"interpolate --json, kept"}
WALL_COMMANDS = {label: COMMANDS[label] for label in ["facering --ordinary --json"]}

# (module, attribute path) of each timed layer
LAYERS = {
    "substitute_monomial_map": ("laurent", "substitute_monomial_map"),
    "divides_one_minus": ("laurent", "divides_one_minus"),
    "phi": ("facering", "phi"),
    "in_w": ("gkm", "in_w"),
    "interpolate": ("facering", "interpolate"),
    "basis_certificate": ("facering", "basis_certificate"),
    "snf_diagonal": ("lattice", "snf_diagonal"),
    "snf": ("lattice", "snf"),
    "OrdinaryKModel": ("facering", "OrdinaryKModel.__init__"),
    "render": ("cli", "_render"),
    "minimal_nonfaces": ("polytope", "SimplePolytope.minimal_nonfaces"),
    "validate_characteristic": ("polytope", "validate_characteristic"),
}


class LayerClock:
    """Calls, total and self seconds of the wrapped layers; self time
    leaves out the time spent in wrapped layers called from inside."""

    def __init__(self):
        self.calls, self.total, self.self_s = Counter(), Counter(), Counter()
        self._stack = []

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                inner = self._stack.pop()
                self.calls[name] += 1
                self.total[name] += spent
                self.self_s[name] += spent - inner
                if self._stack:
                    self._stack[-1] += spent
        return timed


def install(clock):
    """Wrap every layer where quasik binds it; return the undo list."""
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "quasik" or k.startswith("quasik."))]
    undo = []
    for name, (mod, path) in LAYERS.items():
        home = importlib.import_module(f"quasik.{mod}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name)
            fn = owner.__dict__[attr]
            undo.append((owner, attr, fn))
            setattr(owner, attr, clock.wrap(name, fn))
            continue
        fn = getattr(home, attr)
        wrapped = clock.wrap(name, fn)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    undo.append((m, key, fn))
                    setattr(m, key, wrapped)
    return undo


def run_once(cli, argv, clock=None):
    """(seconds, exit code, stdout) of one in-process command."""
    undo = install(clock) if clock is not None else []
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            spent = time.perf_counter() - start
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
    return spent, code, out.getvalue()


def machine_facts():
    facts = {"python": platform.python_version(), "platform": platform.platform(),
             "cpu_count": os.cpu_count(), "cpu_model": None, "mem_total_mb": None}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError, ValueError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                facts["mem_total_mb"] = int(line.split()[1]) // 1024
                break
    return facts


def commit_of(src: Path):
    try:
        out = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(src), "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return out + ("+dirty" if dirty else "")


def median_ms(samples):
    return round(statistics.median(samples) * 1e3, 3)


def bench(cli, rungs, runs, workdir: Path, commands=COMMANDS):
    results = []
    for name, make in rungs.items():
        M = gen.with_height(make(), random.Random(1))
        gen.check(M)
        text = json.dumps(M.document())
        paths = (workdir / f"{name}-{k}.json" for k in itertools.count())
        P = check.random_face_element(M, random.Random(f"bench:{name}"))
        tup = workdir / f"{name}-tuple.json"
        tup.write_text(json.dumps(check.tuple_json(check.phi(M, check.dual_bases(M), P))))

        def sample(label, argv_of):
            """argv_of's arguments, with the document written to a path
            that no earlier run read, which a KEPT row reads once untimed."""
            doc = next(paths)
            doc.write_text(text)
            argv = [str(a) for a in argv_of(doc, tup)]
            if label in KEPT:
                run_once(cli, argv)
            return argv
        for label, argv_of in commands.items():
            walls, codes, digests, sizes = [], set(), set(), set()
            for _ in range(runs):
                spent, code, out = run_once(cli, sample(label, argv_of))
                walls.append(spent)
                codes.add(code)
                digests.add(hashlib.sha256(out.encode()).hexdigest())
                sizes.add(len(out.encode()))
            layer_runs = []
            for _ in range(runs):
                clock = LayerClock()
                run_once(cli, sample(label, argv_of), clock)
                layer_runs.append(clock)
            layers = {
                layer: {"calls": statistics.median(c.calls[layer] for c in layer_runs),
                        "self_ms": median_ms([c.self_s[layer] for c in layer_runs]),
                        "total_ms": median_ms([c.total[layer] for c in layer_runs])}
                for layer in LAYERS}
            row = {"input": name, "m": M.m, "n": M.dim, "d": M.facets, "command": label,
                   "runs": runs, "single_run": runs == 1,
                   "wall_ms": median_ms(walls),
                   "wall_ms_samples": [round(s * 1e3, 3) for s in walls],
                   "exit_codes": sorted(codes), "stdout_sha256": sorted(digests),
                   "stdout_bytes": sorted(sizes), "layers": layers}
            results.append(row)
            print(f"{name:8} {label:26} {row['wall_ms']:12.1f} ms  "
                  f"{max(sizes):11d} B  (k={runs})", flush=True)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--src", default=str(ROOT / "src"), help="src directory of the quasik to time")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from quasik import cli
    if Path(cli.__file__).resolve().parent != src / "quasik":
        ap.error(f"quasik was imported from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        results = (bench(cli, LADDER, RUNS, Path(tmp)) + bench(cli, TAIL, 1, Path(tmp))
                   + bench(cli, WALL, 1, Path(tmp), WALL_COMMANDS))
    report = {"label": args.label, "commit": commit_of(src), "machine": machine_facts(),
              "ladder": "perfbench/gen.py; with_height(M, Random(1)); "
                        "bott(6, Random(6)), bott(7, Random(7)), polygon(20, Random(20)), "
                        "polygon(40, Random(40)), cube3_cut3 = truncate(truncate("
                        "truncate(cube(3), 0), 1), 2); cube9, bott(9, Random(9)), "
                        "cp(15), polygon(80, Random(80)) and polygon(160, Random(160)) "
                        "run facering --ordinary --json only",
              "layers": "calls and self/total ms of each wrapped layer, median of the "
                        "wrapped runs; wall_ms is the median of the plain runs",
              "results": results}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
