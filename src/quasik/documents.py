"""JSON input documents: polytope + characteristic data, and tuple files.

A document carries the combinatorial polytope, the characteristic matrix,
exactly one source of a vertex order (an explicit permutation, or vertex
coordinates plus a height vector), and an optional Bott-variable flag.
Schema problems raise InputError with a field path; mathematical failures
are left to the validators.  A row is checked in one pass that every entry
is an int; only a row that fails it goes through the entry-by-entry check,
so the field path is built only for the value that fails.  Integer
coordinates stay ints (only 'p/q' strings become Fractions), so heights
of integer coordinates are integer sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .gkm import FixedPointTuple
from .laurent import Profile, _raw, add_terms
from .polytope import SimplePolytope, VertexOrder, validate_order, vertex_order_from_heights


class InputError(Exception):
    """Malformed input file (schema level); maps to exit code 2."""


def _expect(cond, msg):
    if not cond:
        raise InputError(msg)


def _int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: expected an integer, got {value!r}")
    return value


def _all_ints(row) -> bool:
    """Whether every entry of row is an int (a bool is not)."""
    for x in row:
        if type(x) is not int:
            return False
    return True


def _rational(value, where):
    """value as an int, or as a Fraction when it is a 'p/q' string."""
    if isinstance(value, bool):
        raise InputError(f"{where}: expected an integer or 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: bad rational {value!r} ({exc})") from None
    raise InputError(f"{where}: expected an integer or 'p/q' string, got {value!r}")


def _int_matrix(value, where, rows=None, cols=None):
    _expect(isinstance(value, list), f"{where}: expected a list of rows")
    if rows is not None:
        _expect(len(value) == rows, f"{where}: {len(value)} rows, expected {rows}")
    out = []
    for i, row in enumerate(value):
        _expect(isinstance(row, list), f"{where}[{i}]: expected a list")
        if cols is not None:
            _expect(len(row) == cols, f"{where}[{i}]: {len(row)} entries, expected {cols}")
        out.append(tuple(row) if _all_ints(row) else
                   tuple(_int(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)))
    return tuple(out)


@dataclass(frozen=True)
class InputDocument:
    name: str
    dim: int
    facets: int
    vertices: tuple[tuple[int, ...], ...]
    lam: tuple[tuple[int, ...], ...]
    vertex_order: Optional[tuple[int, ...]]          # 0-based
    vertex_coords: Optional[tuple[tuple[int | Fraction, ...], ...]]
    height_vector: Optional[tuple[int | Fraction, ...]]
    use_bott: bool

    @property
    def has_order_source(self) -> bool:
        return self.vertex_order is not None or self.vertex_coords is not None


def document_from_dict(obj, where="input") -> InputDocument:
    _expect(isinstance(obj, dict), f"{where}: expected a JSON object")
    known = {"name", "dim", "facets", "vertices", "lambda",
             "vertex_order", "vertex_coords", "height_vector", "use_bott"}
    for key in obj:
        _expect(key in known, f"{where}: unknown field {key!r}")
    for key in ("name", "dim", "facets", "vertices", "lambda"):
        _expect(key in obj, f"{where}: missing field {key!r}")
    name = obj["name"]
    _expect(isinstance(name, str), "field 'name': expected a string")
    n = _int(obj["dim"], "field 'dim'")
    d = _int(obj["facets"], "field 'facets'")
    _expect(isinstance(obj["vertices"], list) and obj["vertices"],
            "field 'vertices': expected a nonempty list")
    vertices = []
    for i, row in enumerate(obj["vertices"]):
        _expect(isinstance(row, list), f"field 'vertices[{i}]': expected a list")
        facets = (tuple(row) if _all_ints(row) else
                  tuple(_int(x, f"field 'vertices[{i}][{j}]'") for j, x in enumerate(row)))
        if len(set(facets)) < len(facets):
            for j, x in enumerate(facets):
                _expect(x not in facets[:j], f"field 'vertices[{i}]': facet {x} listed twice")
        vertices.append(facets)
    lam = _int_matrix(obj["lambda"], "field 'lambda'", rows=d, cols=n)
    m = len(vertices)

    vertex_order = None
    if "vertex_order" in obj:
        vo = obj["vertex_order"]
        _expect(isinstance(vo, list), "field 'vertex_order': expected a list")
        _expect(len(vo) == m, f"field 'vertex_order': {len(vo)} entries for {m} vertices")
        raw = vo if _all_ints(vo) else [_int(x, f"field 'vertex_order[{i}]'")
                                        for i, x in enumerate(vo)]
        _expect(sorted(raw) == list(range(1, m + 1)),
                "field 'vertex_order': not a permutation of 1..m")
        vertex_order = tuple(x - 1 for x in raw)

    vertex_coords = height_vector = None
    if "vertex_coords" in obj or "height_vector" in obj:
        _expect("vertex_coords" in obj and "height_vector" in obj,
                "fields 'vertex_coords' and 'height_vector' must come together")
        vc = obj["vertex_coords"]
        _expect(isinstance(vc, list) and len(vc) == m,
                f"field 'vertex_coords': expected {m} rows")
        coords = []
        for i, row in enumerate(vc):
            _expect(isinstance(row, list), f"field 'vertex_coords[{i}]': expected a list")
            coords.append(tuple(row) if _all_ints(row) else
                          tuple(_rational(x, f"field 'vertex_coords[{i}][{j}]'")
                                for j, x in enumerate(row)))
        vertex_coords = tuple(coords)
        hv = obj["height_vector"]
        _expect(isinstance(hv, list), "field 'height_vector': expected a list")
        height_vector = (tuple(hv) if _all_ints(hv) else
                         tuple(_rational(x, f"field 'height_vector[{i}]'")
                               for i, x in enumerate(hv)))
        for i, row in enumerate(vertex_coords):
            _expect(len(row) == len(height_vector),
                    f"field 'vertex_coords[{i}]': {len(row)} entries, expected "
                    f"{len(height_vector)} (the length of 'height_vector')")

    _expect(not (vertex_order is not None and vertex_coords is not None),
            "exactly one of 'vertex_order' and 'vertex_coords'+'height_vector' is allowed")

    use_bott = obj.get("use_bott", False)
    _expect(isinstance(use_bott, bool), "field 'use_bott': expected a boolean")

    return InputDocument(name, n, d, tuple(vertices), lam,
                         vertex_order, vertex_coords, height_vector, use_bott)


def read_text(path) -> str:
    """The file's full text, decoded as UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def parse_json(text: str, path):
    """The JSON value of text read from path (which names it in errors)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:       # an integer literal past int's digit limit
        raise InputError(f"{path}: integer literal too long: "
                         f"{str(exc).split(';')[0]}") from None


def load_document(path, text: str) -> InputDocument:
    """The document at path, from its content text as read_text returned it."""
    return document_from_dict(parse_json(text, path), where=str(path))


def build_polytope(doc: InputDocument) -> SimplePolytope:
    return SimplePolytope(doc.dim, doc.facets, doc.vertices)


def resolve_order(doc: InputDocument, P: SimplePolytope) -> VertexOrder:
    """Turn the document's order source into a validated VertexOrder."""
    if doc.vertex_order is not None:
        return validate_order(P, doc.vertex_order)
    if doc.vertex_coords is not None:
        return vertex_order_from_heights(P, doc.vertex_coords, doc.height_vector)
    raise InputError("this command needs 'vertex_order' or "
                     "'vertex_coords'+'height_vector' in the input document")


def load_tuple(path, profile: Profile, m: int) -> FixedPointTuple:
    obj = parse_json(read_text(path), path)
    _expect(isinstance(obj, dict) and "entries" in obj,
            f"{path}: expected an object with an 'entries' field")
    entries = obj["entries"]
    _expect(isinstance(entries, list), f"{path}: 'entries' must be a list")
    _expect(len(entries) == m, f"{path}: {len(entries)} entries for {m} fixed points")
    nvars = profile.nvars
    polys = []
    for i, termlist in enumerate(entries):
        _expect(isinstance(termlist, list), f"{path}: entries[{i}] must be a list of terms")
        terms = []
        for j, term in enumerate(termlist):
            if type(term) is dict and len(term) == 2:
                c, exps = term.get("coeff"), term.get("exps")
                if (type(c) is int and type(exps) is list and len(exps) == nvars
                        and _all_ints(exps)):
                    terms.append((tuple(exps), c))
                    continue
            where = f"{path}: entries[{i}][{j}]"
            _expect(isinstance(term, dict) and set(term) == {"coeff", "exps"},
                    f"{where}: expected {{'coeff': .., 'exps': [..]}}")
            c = _int(term["coeff"], f"{where}.coeff")
            exps = term["exps"]
            _expect(isinstance(exps, list) and len(exps) == nvars,
                    f"{where}.exps: expected {nvars} exponents")
            key = tuple(_int(x, f"{where}.exps[{k}]") for k, x in enumerate(exps))
            terms.append((key, c))
        polys.append(_raw(profile, add_terms({}, terms)))
    return FixedPointTuple(profile, polys)
