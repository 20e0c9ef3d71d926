"""Mutated bundled documents through every command, and corrupted bytes of
documents and tuple files through validate and membership: exit 0, 1 or 2,
never an exception out of main, and --json output that parses."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from quasik.cli import main

from conftest import INPUTS

RAW = [p.read_bytes() for p in sorted(INPUTS.glob("*.json"))]
SEEDS = [json.loads(raw) for raw in RAW]
INTEGER_FIELDS = ("vertices", "lambda", "dim", "facets")


def _drop_vertex(doc, i):
    del doc["vertices"][i]
    if "vertex_coords" in doc and i < len(doc["vertex_coords"]):
        del doc["vertex_coords"][i]
    if "vertex_order" in doc:
        doc["vertex_order"] = [x - (x > i + 1) for x in doc["vertex_order"] if x != i + 1]


def _duplicate_vertex(doc, i):
    doc["vertices"].append(list(doc["vertices"][i]))
    if "vertex_coords" in doc and i < len(doc["vertex_coords"]):
        doc["vertex_coords"].append(list(doc["vertex_coords"][i]))
    if "vertex_order" in doc:
        doc["vertex_order"].append(len(doc["vertex_order"]) + 1)


def _set_integer(doc, field, k, value):
    if field in ("dim", "facets"):
        doc[field] = value
        return
    rows = doc[field]
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    if cells:
        r, c = cells[k % len(cells)]
        rows[r][c] = value


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(SEEDS))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["integer", "drop-vertex", "duplicate-vertex", "drop-field", "shuffle-order",
             "height"]))
        if not doc.get("vertices"):
            kind = "drop-field"
        if kind == "integer":
            field = draw(st.sampled_from([f for f in INTEGER_FIELDS if f in doc]))
            _set_integer(doc, field, draw(st.integers(0, 63)), draw(st.integers(-2, 7)))
        elif kind == "drop-vertex":
            _drop_vertex(doc, draw(st.integers(0, len(doc["vertices"]) - 1)))
        elif kind == "duplicate-vertex":
            _duplicate_vertex(doc, draw(st.integers(0, len(doc["vertices"]) - 1)))
        elif kind == "drop-field" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif kind == "shuffle-order" and "vertex_order" in doc:
            doc["vertex_order"] = draw(st.permutations(doc["vertex_order"]))
        elif kind == "height" and "height_vector" in doc:
            n = len(doc["height_vector"])
            doc["height_vector"] = draw(st.lists(st.integers(-3, 3), min_size=max(n - 1, 0),
                                                 max_size=n + 1))
    return doc


def _tuple_file(doc, member):
    """A constant tuple of 1 (a member), or one with a monomial added at the first
    vertex (not a member), sized from the document as far as it is readable."""
    m = len(doc.get("vertices") or [])
    dim = doc.get("dim") if isinstance(doc.get("dim"), int) else 1
    nvars = max(dim, 1) + (1 if doc.get("use_bott") is True else 0)
    entries = [[{"coeff": 1, "exps": [0] * nvars}] for _ in range(m)]
    if m and not member:
        entries[0].append({"coeff": 1, "exps": [1] + [0] * (nvars - 1)})
    return {"entries": entries}


COMMANDS = [["validate"], ["gkm"], ["facering", "--ordinary"],
            ["membership", "TUPLE"], ["interpolate", "TUPLE"],
            ["proptest", "--seed", "2", "--cases", "2"]]


def _run_checked(argv):
    """Run argv in text and --json mode: a known exit code and parseable JSON."""
    for flags in ([], ["--json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + flags)
        assert code in (0, 1, 2), (argv, code)
        if flags:
            report = json.loads(out.getvalue())
            assert report["command"] == argv[0]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents(), st.booleans())
def test_every_command_survives_mutated_documents(doc, member):
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = Path(tmp) / "doc.json"
        doc_path.write_text(json.dumps(doc))
        tuple_path = Path(tmp) / "tuple.json"
        tuple_path.write_text(json.dumps(_tuple_file(doc, member)))
        for command, *rest in COMMANDS:
            _run_checked([command, str(doc_path)]
                         + [str(tuple_path) if a == "TUPLE" else a for a in rest])


@st.composite
def corrupted_bytes(draw, raw):
    """raw truncated at a random offset, with one byte replaced by 0xff, or
    wrapped in nesting that may pass the JSON parser's depth limit."""
    kind = draw(st.sampled_from(["truncate", "0xff", "nest"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "0xff":
        k = draw(st.integers(0, len(raw) - 1))
        return raw[:k] + b"\xff" + raw[k + 1:]
    depth = draw(st.sampled_from([1, 30, 100000]))
    opener, closer = draw(st.sampled_from([(b"[", b"]"), (b'{"a": ', b"}")]))
    return opener * depth + raw + closer * depth


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_validate_and_membership_survive_corrupted_bytes(data):
    k = data.draw(st.integers(0, len(RAW) - 1))
    good_tuple = json.dumps(_tuple_file(SEEDS[k], True)).encode()
    with tempfile.TemporaryDirectory() as tmp:
        good_doc, bad_doc = Path(tmp) / "doc.json", Path(tmp) / "bad_doc.json"
        good_tup, bad_tup = Path(tmp) / "tuple.json", Path(tmp) / "bad_tuple.json"
        good_doc.write_bytes(RAW[k])
        good_tup.write_bytes(good_tuple)
        bad_doc.write_bytes(data.draw(corrupted_bytes(RAW[k])))
        bad_tup.write_bytes(data.draw(corrupted_bytes(good_tuple)))
        _run_checked(["validate", str(bad_doc)])
        _run_checked(["membership", str(bad_doc), str(good_tup)])
        _run_checked(["membership", str(good_doc), str(bad_tup)])
