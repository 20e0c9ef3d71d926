#!/usr/bin/env python3
"""quasik benchmark: seeded workloads through the CLI entry point, in process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ordinary_sweep --seed 1 --seconds 20 --trace 0

Each op calls quasik.cli.main(argv) with --json and captured output, one
op at a time from one thread (a closed loop with one client).  Every answer
is checked by the benchmark's own code.  With --trace 0 the run measures
whole cycles of the workload until --seconds have passed and reports the
end-to-end metrics; with --trace 1 it runs a fixed set of cycles once with
span wrappers installed and once without, and reports per-layer metrics per
op.  Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Runner  # noqa: E402

SETUP_SAMPLES = 7      # cold set-ups timed per run, spread over the run
SETUP_TIMEOUT_S = 60   # one cold set-up takes well under a second
MIN_OPS = 100          # op_p90_ms needs at least ten samples beyond it
HARD_LIMIT_S = 120     # stop mid-cycle past this, so a run always ends in time

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# per-op metrics of the traced run: self times (ms), call counts and work counts
PER_LAYER = {
    **{f"{s}.self_ms": "ms" for s in tracing.SPAN_NAMES},
    "lattice.snf.calls": "count",
    "lattice.snf_diagonal.calls": "count",
    "lattice.snf_diagonal.cells": "count",
    "lattice.snf_diagonal.max_cells": "count",
    "facering.OrdinaryKModel.models": "count",
    "facering.OrdinaryKModel.rows": "count",
    "facering.OrdinaryKModel.monomials": "count",
    "laurent.substitute_monomial_map.calls": "count",
    "laurent.substitute_monomial_map.terms": "count",
    "laurent.divides_one_minus.calls": "count",
    "facering.phi.calls": "count",
    "gkm.GkmGraph.restrict_to_face.calls": "count",
    "polytope.SimplePolytope.all_faces.faces": "count",
    "polytope.SimplePolytope.minimal_nonfaces.nonfaces": "count",
    "trace.op_ms": "ms",
    "trace.overhead": "ratio",
}
NOT_PER_OP = {"lattice.snf_diagonal.max_cells", "trace.op_ms", "trace.overhead"}


def cold_setup(args, root: Path, workdir: Path) -> tuple[float, list[str]]:
    """One set-up in a fresh interpreter (coldstart.py): its seconds and any
    wrong warm-up answer.  The child's inputs go to a directory of its own."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), args.workload, str(args.seed),
         str(workdir / "coldstart")],
        cwd=root, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["seconds"], out["wrong"]


def measure(args, root, workdir, r: Runner, wl, first, setups) -> int:
    """Whole cycles until --seconds have passed and MIN_OPS ops are done.

    Between cycles, about every --seconds / SETUP_SAMPLES, one cold set-up
    is timed, so setup_s samples the host over the whole run like the op
    metrics do.  Returns the number of cycles.
    """
    start = time.perf_counter()
    ops, c = first, 0
    while True:
        for op in ops:
            r.run(op, digest=c == 0)
            if time.perf_counter() - start > HARD_LIMIT_S:
                return c
        c += 1
        now = time.perf_counter()
        if now - start >= args.seconds and r.attempted >= MIN_OPS:
            return c
        if len(setups) < SETUP_SAMPLES and \
                now - start >= (len(setups) + 1) * args.seconds / SETUP_SAMPLES:
            setups.append(cold_setup(args, root, workdir))
        ops = wl.cycle(c)


def traced(cli, wl, first, spans_path: Path):
    """Run the trace set with and without spans, op by op; per-op layer metrics.

    Each op runs twice in a row, traced and untraced, alternating which goes
    first, so both passes see the same host speed and warm caches equally.
    """
    ops = first + [op for c in range(1, wl.trace_cycles) for op in wl.cycle(c)]
    tr = tracing.Tracer()
    t_run, u_run = Runner(cli), Runner(cli)
    for k, op in enumerate(ops):
        tr.op = k
        for with_spans in ((True, False) if k % 2 == 0 else (False, True)):
            if not with_spans:
                u_run.run(op, digest=k < len(first))
                continue
            undo = tracing.install(tr)
            try:
                t_run.run(op, digest=k < len(first))
            finally:
                tracing.uninstall(undo)
    tr.write(spans_path)

    n = len(ops)
    summary = tr.summary()
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            value = summary.get(name[:-len(".self_ms")], (0, 0.0))[1] * 1000
        elif name.endswith(".calls"):
            value = summary.get(name[:-len(".calls")], (0, 0.0))[0]
        else:
            value = tr.counts.get(name, 0)
        metrics[name] = value if name in NOT_PER_OP else value / n
    metrics["trace.op_ms"] = sum(t_run.latencies) * 1000 / n
    metrics["trace.overhead"] = sum(u_run.latencies) / sum(t_run.latencies)
    return t_run, u_run, metrics


def report_traced(head, root, cli, wl, first, spans):
    t_run, u_run, metrics = traced(cli, wl, first, spans)
    same = t_run.digest.hexdigest() == u_run.digest.hexdigest()
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    lines = [f"{head} traced: {t_run.attempted} ops with spans and again without",
             f"  digest sha256 {t_run.digest.hexdigest()} (first cycle, {len(first)} ops)"
             + ("" if same else f"; WRONG: untraced digest {u_run.digest.hexdigest()}"),
             f"  spans written to {spans.relative_to(root)}",
             f"  self times sum to {self_sum:.4f} of {metrics['trace.op_ms']:.4f} "
             "ms traced op time"]
    lines += [f"  {k:52s} {v:16.6f} {PER_LAYER[k]} (per op, {t_run.attempted} ops)"
              if k not in NOT_PER_OP else f"  {k:52s} {v:16.6f} {PER_LAYER[k]}"
              for k, v in metrics.items()]
    result = {"correct": same and t_run.correct and u_run.correct,
              "attempted": t_run.attempted + u_run.attempted,
              "failed": t_run.failed + u_run.failed,
              "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()}}
    return lines, result, (t_run, u_run)


def report_measured(head, args, root, workdir, cli, wl, first):
    r, setups = Runner(cli), []
    cycles = measure(args, root, workdir, r, wl, first, setups)
    setups += [cold_setup(args, root, workdir) for _ in range(SETUP_SAMPLES - len(setups))]
    lat = r.latencies
    n = r.attempted
    values = {
        "ops_per_s": r.correct_ops / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1000,
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(x * 1000 > values["op_p90_ms"] for x in lat)
    samples = {"ops_per_s": f"{r.correct_ops} correct ops in {sum(lat):.3f} s of ops",
               "op_p50_ms": f"{n} samples",
               "op_p90_ms": f"{n} samples, {beyond} beyond",
               "setup_s": f"median of {len(setups)} cold set-ups, each in a fresh interpreter",
               "peak_rss_mb": "1 sample"}
    lines = [f"{head}: {n} ops in {cycles} cycles, {r.failed} failed"]
    lines += [f"  {k:12s} {v:14.6f} {END_TO_END[k]:6s} ({samples[k]})"
              for k, v in values.items()]
    lines.append(f"  {'fail_rate':12s} {r.failed / n:14.6f} {'ratio':6s} ({r.failed} of {n} ops)")
    lines.append(f"  digest sha256 {r.digest.hexdigest()} (first cycle, {len(first)} ops)")
    setup_wrong = [msg for _, wrong in setups for msg in wrong]
    lines += [f"  WRONG in a cold set-up: {msg}" for msg in setup_wrong[:5]]
    result = {"correct": r.correct and not setup_wrong, "attempted": n, "failed": r.failed,
              "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}
    return lines, result, (r,)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "quasik" / "cli.py").is_file():
        print(f"no quasik sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from quasik import cli
    outdir = root / ".perfbench"
    workdir = outdir / f"{args.workload}-seed{args.seed}"
    try:
        wl, first, warm = workloads.set_up(cli, args.workload, args.seed, workdir)
        head = f"workload {args.workload} seed {args.seed}"
        if args.trace:
            spans = outdir / f"spans-{args.workload}-seed{args.seed}.tsv"
            lines, result, runs = report_traced(head, root, cli, wl, first, spans)
        else:
            lines, result, runs = report_measured(head, args, root, workdir, cli, wl, first)
        result["correct"] = result["correct"] and warm.correct
        crashes = {}
        for r in (warm,) + runs:
            for msg, count in r.crashes.items():
                crashes[msg] = crashes.get(msg, 0) + count
            lines += [f"  WRONG {msg}" for msg in r.wrong[:5]]
        lines += [f"  escaped main {count}x: {msg}" for msg, count in sorted(crashes.items())]
        for line in lines:
            print(line)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
