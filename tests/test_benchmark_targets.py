"""The benchmark's traced layers name functions that exist in quasik, and
perfbench's own tests pass against this tree.

perfbench/tracer.py skips a target it cannot find, and that layer's
metrics then read 0; the first test turns such a rename into a failure.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

from conftest import ROOT

TRACER = ROOT / "perfbench" / "tracer.py"


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
    assert missing == []


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(), reason="no perfbench/ in this checkout")
def test_perfbench_suite_passes():
    """perfbench's own tests build quasik objects directly (GkmGraph(P, lam),
    for one), so an API change that the tests here miss can break them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench"], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
