"""Span tracer for the traced benchmark run.

Wrappers are installed from here, never from quasik itself: each target
function is replaced in every quasik module that binds it (through a
from-import as well as its home module), and methods are replaced on
their class.  A span records (name, start, end, parent span, op id); the
spans stay in memory and are written out when the run ends.  Counts are
recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []          # (name_id, start, end, parent, op); parent -1 = root
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = -1
        self._seen: dict[str, set] = defaultdict(set)

    def enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((nid, self.clock(), None, parent, self.op))
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        end = self.clock()
        nid, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (nid, start, end, parent, op)
        self._stack.pop()

    def parent_name(self) -> str | None:
        """Name of the innermost open span."""
        if not self._stack:
            return None
        return self.names[self.spans[self._stack[-1]][0]]

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] += value

    def count_max(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    def first_in_op(self, key: str, obj) -> bool:
        """True the first time obj is seen under key in the current op."""
        seen = self._seen[key]
        token = (self.op, id(obj))
        if token in seen:
            return False
        seen.add(token)
        return True

    def summary(self):
        """{name: (calls, self seconds)} over every closed span."""
        return self_times(self.spans, self.names)

    def write(self, path) -> None:
        """One tab-separated line per span: op, name, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\top\tname\tparent\tstart_s\tend_s\n")
            for i, (nid, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{op}\t{self.names[nid]}\t{parent}\t{start!r}\t{end!r}\n")


def self_times(spans, names):
    """Calls and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, (nid, start, end, _, _) in enumerate(spans):
        calls[names[nid]] += 1
        self_s[names[nid]] += (end - start) - child[i]
    return {name: (calls[name], self_s[name]) for name in calls}


# -- targets -----------------------------------------------------------------

def _cells(tr, args, result):
    A = args[0]
    cells = A.rows * A.cols
    tr.count("lattice.snf_diagonal.cells", cells)
    tr.count_max("lattice.snf_diagonal.max_cells", cells)
    if tr.parent_name() == "facering.OrdinaryKModel":
        tr.count("facering.OrdinaryKModel.rows", A.rows)


def _terms(tr, args, result):
    tr.count("laurent.substitute_monomial_map.terms", len(args[0].terms))


def _model(tr, args, result):
    tr.count("facering.OrdinaryKModel.models")
    tr.count("facering.OrdinaryKModel.monomials", len(getattr(args[0], "monomials", ())))


def _faces(tr, args, result):
    if tr.first_in_op("faces", args[0]):
        tr.count("polytope.SimplePolytope.all_faces.faces", len(result))


def _nonfaces(tr, args, result):
    if tr.first_in_op("nonfaces", args[0]):
        tr.count("polytope.SimplePolytope.minimal_nonfaces.nonfaces", len(result))


# (module, attribute path, span name, count hook run after the call)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("documents", "load_document", "documents.load_document", None),
    ("documents", "load_tuple", "documents.load_tuple", None),
    ("polytope", "validate_simple", "polytope.validate_simple", None),
    ("polytope", "validate_characteristic", "polytope.validate_characteristic", None),
    ("polytope", "vertex_order_from_heights", "polytope.vertex_order_from_heights", None),
    ("polytope", "SimplePolytope.all_faces", "polytope.SimplePolytope.all_faces", _faces),
    ("polytope", "SimplePolytope.minimal_nonfaces",
     "polytope.SimplePolytope.minimal_nonfaces", _nonfaces),
    ("lattice", "snf", "lattice.snf", None),
    ("lattice", "snf_diagonal", "lattice.snf_diagonal", _cells),
    ("laurent", "substitute_monomial_map", "laurent.substitute_monomial_map", _terms),
    ("laurent", "divides_one_minus", "laurent.divides_one_minus", None),
    ("gkm", "GkmGraph.__init__", "gkm.GkmGraph.__init__", None),
    ("gkm", "GkmGraph.restrict_to_face", "gkm.GkmGraph.restrict_to_face", None),
    ("gkm", "in_w", "gkm.in_w", None),
    ("gkm", "in_gamma", "gkm.in_gamma", None),
    ("facering", "OrdinaryKModel.__init__", "facering.OrdinaryKModel", _model),
    ("facering", "ordinary_rank", "facering.ordinary_rank", None),
    ("facering", "basis_certificate", "facering.basis_certificate", None),
    ("facering", "phi", "facering.phi", None),
    ("facering", "interpolate", "facering.interpolate", None),
]

SPAN_NAMES = [t[2] for t in TARGETS]


def _wrap(tr: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.exit(idx)
        if hook is not None:
            hook(tr, args, result)
        return result
    return traced


def install(tr: Tracer):
    """Patch every target; return an undo list for uninstall().

    A target missing from quasik is skipped, so its metrics read 0.
    """
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "quasik" or k.startswith("quasik."))]
    undo = []
    for mod_name, path, span, hook in TARGETS:
        home = sys.modules.get(f"quasik.{mod_name}")
        if home is None:
            continue
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name, None)
            fn = owner.__dict__.get(attr) if owner is not None else None
            if fn is None:
                continue
            undo.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tr, span, fn, hook))
            continue
        fn = getattr(home, attr, None)
        if fn is None:
            continue
        wrapped = _wrap(tr, span, fn, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, key, fn))
                    setattr(mod, key, wrapped)
    return undo


def uninstall(undo) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)
