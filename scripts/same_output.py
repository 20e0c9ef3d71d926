#!/usr/bin/env python3
"""Check that two quasik trees print the same bytes for every command.

Usage, from the root of a checkout:

    python3 scripts/same_output.py --src A/src --src B/src

Each --src is the src directory of one quasik tree.  The runs are:

* the bundled inputs/*.json, plus four variants of square_h1: one with
  no order source, one whose height vector ties on an edge, and two that
  fail validate_simple, one without its 4th vertex (square_open) and one
  with a 5th vertex {2,4} (square_extra);
* a perfbench/gen.py ladder: cp1-cp4, cube2-cube4, bott2-bott4,
  polygon5-polygon7, one vertex truncation, then cube6, bott6, cp10,
  poly20, poly25 (past the 24 facets that the non-face search once
  refused), poly40 (where the ordinary model's rows are densest) and
  polygon6xcp2 (a gen.product, whose faces are products of faces), each
  given a height by with_height(M, Random(1));
* each of these documents also as a use_bott variant;
* on each document: validate, gkm (plain and with --dot), facering (plain
  and --ordinary), membership and interpolate of a member tuple and of a
  non-member, and proptest --cases 4, each in text and in --json;
* a few usage errors and help texts;
* documents whose vertex blocks are not all unimodular: square_h1 with
  |det| = 2 at two vertices, with vertex 0 failing, and with {3,4}
  unimodular between two failing neighbours, and the cube with six
  failing vertices of |det| 2, 3 and 5; each run through validate and
  membership (of the constant tuple 1) in text and in --json;
* malformed inputs, each run through validate and membership in text and
  in --json: documents with a bool, float, null or string in a vertex
  row, a lambda row or vertex_order, or with a bool, float, null, "x" or
  "1/0" in a vertex_coords row or the height vector; and square_h0's
  membership of tuple files with such a value as a coefficient or an
  exponent, with too few or too many exponents, or with a term that lacks
  a key or has an extra one.  These end in an input error whose text
  names the field and the first value that fails.

Member tuples are phi(P) of a seeded random face element P, computed by
perfbench/check.py rather than by quasik; a non-member adds one monomial
at one vertex.  All runs of a tree go through quasik.cli.main in one
subprocess, with that tree's src first on the path, in a working
directory of its own so that DOT files land there under the same
relative name.  Stdout, stderr, exit code and DOT bytes are compared run
by run; the script prints every run that differs, the number of runs,
and a tally of the differing runs by command (the subcommand and its
--options) and by the fields that differ, against which a declared
output change can be checked.  A --json run whose stdout differs is also
tallied by the report keys that differ: each top-level payload key as
payload.<key>, and command, input or status by name.  It exits 1 if any
run differs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
import gen  # noqa: E402

CASES = "4"
DOT = "gkm.dot"

LADDER = {
    **{f"cp{n}": (lambda n=n: gen.cp(n)) for n in (1, 2, 3, 4)},
    **{f"cube{n}": (lambda n=n: gen.cube(n)) for n in (2, 3, 4)},
    **{f"bott{n}": (lambda n=n: gen.bott(n, random.Random(n))) for n in (2, 3, 4)},
    **{f"polygon{k}": (lambda k=k: gen.polygon(k, random.Random(k))) for k in (5, 6, 7)},
    "cube3_cut": lambda: gen.truncate(gen.cube(3), 0),
    "cube6": lambda: gen.cube(6),
    "bott6": lambda: gen.bott(6, random.Random(6)),
    "cp10": lambda: gen.cp(10),
    "poly20": lambda: gen.polygon(20, random.Random(20)),
    "poly25": lambda: gen.polygon(25, random.Random(25)),
    "poly40": lambda: gen.polygon(40, random.Random(40)),
    "polygon6xcp2": lambda: gen.product(gen.polygon(6, random.Random(6)), gen.cp(2)),
}

USAGE = [
    [], ["--help"], ["proptest", "--help"], ["gkm"], ["frobnicate", "x.json"],
    ["proptest", "missing.json", "--cases", "many"],
    ["proptest", str(ROOT / "inputs" / "cp2.json"), "--cases", "-1"],
    ["validate", "missing.json"], ["validate", "missing.json", "--json"],
]

# run in the child: argv lists on stdin, one result per run to the file
# named by argv[1]
CHILD = r"""
import contextlib, io, json, os, sys
from quasik import cli
if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.abspath(sys.argv[2]):
    sys.exit(f"quasik was imported from {cli.__file__}, not from {sys.argv[2]}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    dot = None
    if os.path.exists("gkm.dot"):
        with open("gkm.dot", encoding="utf-8") as fh:
            dot = fh.read()
        os.remove("gkm.dot")
    results.append({"stdout": out.getvalue(), "stderr": err.getvalue(),
                    "code": code, "dot": dot})
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def manifold_of(doc: dict) -> gen.Manifold:
    return gen.Manifold(doc["name"], doc["dim"], tuple(frozenset(fs) for fs in doc["vertices"]),
                        tuple(tuple(r) for r in doc["lambda"]), ())


def tuples_of(doc: dict, rng: random.Random):
    """(member, non-member) tuple documents for doc; a document with a
    non-unimodular or singular vertex block gets constant tuples of the
    right shape."""
    M = manifold_of(doc)
    try:
        member = check.phi(M, check.dual_bases(M), check.random_face_element(M, rng))
    except (ValueError, StopIteration):
        member = [{(0,) * M.dim: 1} for _ in range(M.m)]
    other = check.add_monomial(member, rng.randrange(M.m), (1,) * M.dim, 1)
    out = []
    for t in (member, other):
        if doc.get("use_bott"):
            # multiply by z: phi carries z through, so members stay members
            t = [{e + (1,): c for e, c in a.items()} for a in t]
        out.append(check.tuple_json(t))
    return out


def documents() -> dict[str, dict]:
    docs = {}
    for path in sorted((ROOT / "inputs").glob("*.json")):
        docs[path.stem] = json.loads(path.read_text())
    base = docs["square_h1"]
    docs["no_order"] = {k: v for k, v in base.items()
                        if k not in ("vertex_coords", "height_vector")} | {"name": "no_order"}
    docs["height_tie"] = base | {"name": "height_tie", "height_vector": [1, 0]}
    docs["square_open"] = base | {"name": "square_open", "vertices": base["vertices"][:3],
                                  "vertex_coords": base["vertex_coords"][:3]}
    docs["square_extra"] = base | {"name": "square_extra",
                                   "vertices": base["vertices"] + [[2, 4]],
                                   "vertex_coords": base["vertex_coords"] + [[2, 2]]}
    for name, make in LADDER.items():
        M = replace(gen.with_height(make(), random.Random(1)), name=name)
        docs[name] = M.document()
    for name in list(docs):
        docs[f"{name}_bott"] = docs[name] | {"name": f"{name}_bott", "use_bott": True}
    return docs


BAD_INTS = [True, 1.5, None, "2"]
BAD_RATIONALS = [True, 1.5, None, "x", "1/0"]
# (input, keys of the field, its malformed values)
BAD_FIELDS = [
    ("square_h0", ("vertices", 2, 1), BAD_INTS),
    ("square_h0", ("lambda", 3, 1), BAD_INTS),
    ("bad_order", ("vertex_order", 2), BAD_INTS),
    ("square_h0", ("vertex_coords", 2, 1), BAD_RATIONALS),
    ("square_h0", ("height_vector", 1), BAD_RATIONALS),
]
ONE = {"coeff": 1, "exps": [0, 0]}
# (input, name, lambda) with some vertex blocks not unimodular
NON_UNIMODULAR = [
    ("square_h1", "square_det2", [[1, 0], [0, 1], [-2, 1], [0, -1]]),
    ("square_h1", "square_first_fails", [[1, 0], [1, 2], [-1, -1], [0, -1]]),
    ("square_h1", "square_island", [[1, 0], [0, 1], [2, 1], [3, 2]]),
    ("cube", "cube_dets", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [3, 1, 1], [0, -1, 0], [1, 1, 2]]),
]
BAD_TERMS = ([{"coeff": v, "exps": [0, 0]} for v in BAD_INTS]
             + [{"coeff": 1, "exps": [0, v]} for v in BAD_INTS]
             + [{"coeff": 1, "exps": [0]}, {"coeff": 1, "exps": [0, 0, 0]},
                {"coeff": 1, "exps": [0, 0], "x": 0}, {"coeff": 1}])


def malformed() -> tuple[list[dict], list[dict]]:
    """(documents, square_h0 tuple files) that each hold one malformed value."""
    docs = []
    for name, keys, values in BAD_FIELDS:
        for k, value in enumerate(values):
            doc = json.loads((ROOT / "inputs" / f"{name}.json").read_text())
            doc["name"] = f"{name}-{keys[0]}-{k}"
            field = doc
            for key in keys[:-1]:
                field = field[key]
            field[keys[-1]] = value
            docs.append(doc)
    tuples = [{"entries": [[ONE], [ONE, term], [ONE], [ONE]]} for term in BAD_TERMS]
    return docs, tuples


def runs(workdir: Path) -> list[list[str]]:
    out = [list(argv) for argv in USAGE]
    docs, tuples = malformed()
    good_tuple = workdir / "malformed-good-tuple.json"
    good_tuple.write_text(json.dumps({"entries": [[ONE]] * 4}))
    for k, doc in enumerate(docs):
        path = workdir / f"malformed-doc{k}.json"
        path.write_text(json.dumps(doc))
        out += [argv + extra for argv in (["validate", str(path)],
                                          ["membership", str(path), str(good_tuple)])
                for extra in ([], ["--json"])]
    for base, name, lam in NON_UNIMODULAR:
        doc = json.loads((ROOT / "inputs" / f"{base}.json").read_text())
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc | {"name": name, "lambda": lam}))
        one = workdir / f"{name}-one.json"
        one.write_text(json.dumps({"entries": [[{"coeff": 1, "exps": [0] * doc["dim"]}]]
                                   * len(doc["vertices"])}))
        out += [argv + extra for argv in (["validate", str(path)],
                                          ["membership", str(path), str(one)])
                for extra in ([], ["--json"])]
    for k, t in enumerate(tuples):
        path = workdir / f"malformed-tuple{k}.json"
        path.write_text(json.dumps(t))
        out += [["membership", str(ROOT / "inputs" / "square_h0.json"), str(path)] + extra
                for extra in ([], ["--json"])]
    for name, doc in documents().items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        member, other = tuples_of(doc, random.Random(f"same-output:{name}"))
        tuple_paths = []
        for label, t in (("member", member), ("other", other)):
            tp = workdir / f"{name}-{label}.json"
            tp.write_text(json.dumps(t))
            tuple_paths.append(str(tp))
        doc_runs = [["validate", str(path)], ["gkm", str(path)],
                    ["gkm", str(path), "--dot", DOT], ["facering", str(path)],
                    ["facering", str(path), "--ordinary"],
                    ["proptest", str(path), "--cases", CASES]]
        for tp in tuple_paths:
            doc_runs += [["membership", str(path), tp], ["interpolate", str(path), tp]]
        out += [argv + extra for argv in doc_runs for extra in ([], ["--json"])]
    return out


def run_tree(src: Path, argvs, workdir: Path) -> list[dict]:
    cwd = Path(tempfile.mkdtemp(dir=workdir))
    result = cwd / "results.json"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", CHILD, str(result), str(src / "quasik")],
                   input=json.dumps(argvs), text=True, cwd=cwd, env=env, check=True)
    return json.loads(result.read_text())


def report_keys(a: str, b: str):
    """The keys that differ between two --json reports: payload.<key> for
    each top-level payload key, and any other top-level key by name; None
    when either text is not such a report."""
    try:
        x, y = json.loads(a), json.loads(b)
        px, py = x.pop("payload"), y.pop("payload")
        keys = [k for k in sorted(x.keys() | y.keys()) if x.get(k, KeyError) != y.get(k, KeyError)]
        return keys + [f"payload.{k}" for k in sorted(px.keys() | py.keys())
                       if px.get(k, KeyError) != py.get(k, KeyError)]
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="src directory of a quasik tree; give it twice")
    args = ap.parse_args(argv)
    if len(args.src) != 2:
        ap.error("give --src exactly twice")
    srcs = [Path(s).resolve() for s in args.src]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argvs = runs(workdir)
        a, b = (run_tree(src, argvs, workdir) for src in srcs)
        tmp_prefix = str(workdir)
    tally = Counter()
    for argv, x, y in zip(argvs, a, b):
        fields = [k for k in ("stdout", "stderr", "code", "dot") if x[k] != y[k]]
        if "stdout" in fields and "--json" in argv:
            keys = report_keys(x["stdout"], y["stdout"])
            if keys is not None:
                fields[0] = f"stdout [{' '.join(keys)}]"
        if fields:
            shown = " ".join(s.replace(tmp_prefix, "$TMP") for s in argv)
            print(f"DIFFERS ({', '.join(fields)}): quasik {shown}")
            command = " ".join(argv[:1] + [s for s in argv[1:] if s.startswith("--")])
            tally[command or "(no arguments)", ", ".join(fields)] += 1
    differ = sum(tally.values())
    print(f"{len(argvs)} runs, {len(argvs) - differ} identical, {differ} differ")
    for (command, fields), count in sorted(tally.items()):
        print(f"  {count} differ in {fields}: quasik {command}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
