"""The benchmark's traced layers name functions that exist in quasik.

perfbench/tracer.py skips a target it cannot find, and that layer's
metrics then read 0; this test turns such a rename into a failure.
"""

import importlib
import importlib.util

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
