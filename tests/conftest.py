from pathlib import Path

import pytest

from quasik import facering
from quasik.documents import build_polytope, load_document, resolve_order
from quasik.gkm import GkmGraph

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "inputs"

GOOD_INPUTS = ["cp1", "cp2", "cp3", "square_h0", "square_h1",
               "square_h2", "square_h3", "cube"]


def input_path(name: str) -> Path:
    return INPUTS / f"{name}.json"


@pytest.fixture(scope="session")
def documents():
    return {name: load_document(input_path(name)) for name in GOOD_INPUTS}


@pytest.fixture(scope="session")
def graphs(documents):
    out = {}
    for name, doc in documents.items():
        P = build_polytope(doc)
        order = resolve_order(doc, P)
        out[name] = GkmGraph(P, doc.lam, order=order, bott=doc.use_bott)
    return out


@pytest.fixture
def short_rank(monkeypatch):
    """Every OrdinaryKModel reports one less than its true rank."""
    init = facering.OrdinaryKModel.__init__

    def patched(self, g, degree):
        init(self, g, degree)
        self.rank -= 1

    monkeypatch.setattr(facering.OrdinaryKModel, "__init__", patched)
