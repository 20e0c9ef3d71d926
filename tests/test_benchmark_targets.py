"""The benchmark's traced layers name functions that exist in quasik, and
perfbench's own tests pass against this tree.

perfbench/tracer.py skips a target it cannot find, and that layer's
metrics then read 0; the first test turns such a rename into a failure.
Only the RETIRED targets, methods deleted from quasik on purpose, may be
missing, and a retired method that comes back fails until it leaves the
set.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT

TRACER = ROOT / "perfbench" / "tracer.py"

# traced targets that quasik no longer has: code that only tests reached
RETIRED = {"quasik.polytope.SimplePolytope.all_faces",
           "quasik.gkm.GkmGraph.restrict_to_face"}


@pytest.mark.skipif(not TRACER.is_file(), reason="no perfbench/ in this checkout")
def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _, _ in tracer.TARGETS:
        home = importlib.import_module(f"quasik.{module}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name, None)
            target = vars(owner).get(attr) if owner is not None else None
        else:
            target = getattr(home, attr, None)
        if not callable(target):
            missing.append(f"quasik.{module}.{path}")
    assert set(missing) == RETIRED


@pytest.mark.skipif(not (ROOT / "BENCHMARK.json").is_file(), reason="no BENCHMARK.json")
def test_retired_targets_still_read_zero():
    """A retired target's self time stays a declared per-layer metric, so it
    reads 0 rather than vanishing from the benchmark's reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {m["name"] for m in spec["per_layer"]}
    for name in RETIRED:
        assert name.removeprefix("quasik.") + ".self_ms" in layers, name


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(), reason="no perfbench/ in this checkout")
def test_perfbench_suite_passes():
    """perfbench's own tests build quasik objects directly (GkmGraph(P, lam),
    for one), so an API change that the tests here miss can break them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench"], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
