import importlib.util
import random
import sys
from itertools import combinations
from math import factorial, prod
from pathlib import Path

import pytest

from quasik import cli, facering
from quasik.documents import (
    build_polytope, document_from_dict, load_document, read_text, resolve_order)
from quasik.gkm import GkmGraph, _check_tuple
from quasik.lattice import SparseMat, snf_diagonal
from quasik.laurent import (
    LaurentPoly, MonomialMap, face_profile, project_terms, substitute_monomial_map)
from quasik.polytope import Face, SimplePolytope

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "inputs"

GOOD_INPUTS = ["cp1", "cp2", "cp3", "square_h0", "square_h1",
               "square_h2", "square_h3", "cube"]

# perfbench/gen.py manifolds, each made by GENERATED[name](gen)
GENERATED = {
    "cube4": lambda gen: gen.cube(4),
    "bott4": lambda gen: gen.bott(4, random.Random(4)),
    "polygon9": lambda gen: gen.polygon(9, random.Random(9)),
    "polygon12": lambda gen: gen.polygon(12, random.Random(12)),
    "cube3_cut3": lambda gen: gen.truncate(gen.truncate(gen.truncate(gen.cube(3), 0), 1), 2),
}


def dense_substitute(f, rows, profile):
    """Reference monomial substitution through a dense matrix given by its
    rows: e^u -> e^{A u} on the first len(rows[0]) exponents of every term,
    anything after them (z) carried through, colliding terms merged."""
    k = f.profile.count
    out = {}
    for exp, c in f.terms.items():
        ne = tuple(sum(row[j] * exp[j] for j in range(k)) for row in rows) + exp[k:]
        out[ne] = out.get(ne, 0) + c
    return LaurentPoly(profile, out)


def faces_by_definition(P):
    """Every face, ordered by (number of facets, sorted facets): the vertices
    on each facet set of at most dim facets, when there are any, with every
    facet they all lie on."""
    faces = {}
    for k in range(P.dim + 1):
        for S in combinations(range(1, P.facet_count + 1), k):
            verts = tuple(v for v, fs in enumerate(P.vertices) if set(S) <= fs)
            if verts:
                sat = frozenset.intersection(*(P.vertices[v] for v in verts))
                faces[sat] = Face(sat, verts)
    return sorted(faces.values(), key=lambda f: (len(f.facets), sorted(f.facets)))


def join(P, v, w):
    """The minimal face containing vertices v and w: the face of the facets
    they share (the whole polytope if none)."""
    return P.face_of(P.vertices[v] & P.vertices[w])


def eliminate(g, elem):
    """A Bott-free face-ring element with the base vertex's variables
    eliminated: the dense matrix whose column k is _elimination's image of
    y_k, applied by dense_substitute."""
    survivors, image = facering._elimination(g)
    rows = [[image[k][r] for k in range(1, g.d + 1)] for r in range(len(survivors))]
    return dense_substitute(elem, rows, face_profile(len(survivors)))


def truncated_product(a, b, cap):
    """Product of two {exponents: coeff} polynomials, terms above degree cap dropped."""
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            g = tuple(x + y for x, y in zip(e, f))
            if sum(g) <= cap:
                out[g] = out.get(g, 0) + c * d
    return {g: c for g, c in out.items() if c}


def binomial(e, k):
    """e(e - 1)...(e - k + 1) / k!, the coefficient of x^k in (1 + x)^e, e of
    either sign."""
    return prod(range(e - k + 1, e + 1)) // factorial(k)


def shift_terms(terms, cap):
    """y = 1 + x in each variable, extended linearly to {exponents: coeff},
    truncated above total degree cap, zeros dropped.  Each monomial is the
    truncated product of its one-variable binomial series; nothing here
    goes through facering._shift or the model's integer codes."""
    out = {}
    for exp, c in terms.items():
        n = len(exp)
        part = {(0,) * n: c}
        for j, e in enumerate(exp):
            series = {tuple(k if i == j else 0 for i in range(n)): binomial(e, k)
                      for k in range(cap + 1)}
            part = truncated_product(part, series, cap)
        for e, v in part.items():
            out[e] = out.get(e, 0) + v
    return {e: c for e, c in out.items() if c}


def decode(model, code):
    """The exponent tuple of an OrdinaryKModel monomial code: its digits in
    base degree + 1, one per survivor, lowest first."""
    out = []
    for _ in model.survivors:
        code, e = divmod(code, model.degree + 1)
        out.append(e)
    return tuple(out)


def encode(model, exp):
    """The OrdinaryKModel code of an exponent tuple of degree <= its degree."""
    return sum(e * (model.degree + 1) ** j for j, e in enumerate(exp))


def decoded_rows(model):
    """The model's rows, killed columns dropped, keyed by exponent tuples."""
    return [{decode(model, e): c for e, c in row.items()} for row in model.rows]


def model_terms(model, elem):
    """Reference expansion of a face-ring element in an OrdinaryKModel's
    shifted survivor variables, truncated at its degree, keyed by exponent
    tuples: drop a zero z exponent (the model is Bott-free), eliminate,
    then shift."""
    g = model.graph
    if elem.profile.bott:
        assert not any(e[-1] for e in elem.terms), "ordinary model is Bott-free"
        elem = LaurentPoly(face_profile(g.d), {e[:-1]: c for e, c in elem.terms.items()})
    return shift_terms(eliminate(g, elem).terms, model.degree)


def model_reduce(model, elem):
    """Coefficient vector of a face-ring element over the model's monomials."""
    terms = model_terms(model, elem)
    return tuple(terms.get(decode(model, e), 0) for e in model.monomials)


def model_vanishes(model, elem) -> bool:
    """Does the element vanish in the model's truncated quotient?  Adding
    its row, coded like the model's and with the killed columns dropped (a
    unit row clears its column from every other row), leaves the nonzero
    Smith invariants of the model's rows as they are."""
    row = {k: c for e, c in model_terms(model, elem).items()
           if (k := encode(model, e)) not in model.killed}

    def invariants(rows):
        cols = len(model.monomials) - len(model.killed)
        return sorted(d for d in snf_diagonal(SparseMat(cols, rows)) if d)

    return not row or invariants(model.rows + (row,)) == invariants(model.rows)


def step_map(g, v):
    """e^u -> prod of y_i^{<u, lambda_i>} over the facets i of vertex v, a
    right inverse of v's phi map: it writes only the exponents at v's
    facets, one row lambda_i each."""
    facets = sorted(g.polytope.vertices[v])
    return MonomialMap(g.char_profile, g.face_profile, range(g.n),
                       [i - 1 for i in facets], [g.lam_row(i) for i in facets])


def push_interpolate(g, order, t):
    """Reference interpolate in push form, with the same three checks: step
    v maps residual[v] through step_map(g, v) and subtracts phi(p) from the
    residual at every vertex of F_v = face_of(order.extra[v]), checking
    that v's own residual is then zero, so a map that undoes no step
    fails only where an entry is left over."""
    _check_tuple(g, t)
    residual = list(t.entries)
    total = LaurentPoly.zero(g.face_profile)
    steps = []
    for pos, v in enumerate(order.order):
        p = substitute_monomial_map(residual[v], step_map(g, v))
        if not p.is_zero:
            facets = g.polytope.vertices[v]
            if any(project_terms(p.terms, g.face_pick(facets - {i})) for i in order.extra[v]):
                raise facering.ResidualNonzero(pos, "step polynomial not divisible by omega_v")
            face = g.polytope.face_of(order.extra[v])
            if any(order.position[j] < pos for j in face.vertices):
                raise facering.ResidualNonzero(pos, "face above v has an earlier vertex")
            for j in face.vertices:
                residual[j] = residual[j] - substitute_monomial_map(p, g.phi_maps[j])
            total = total + p
        steps.append(facering.InterpolationStep(pos, v, p))
        if not residual[v].is_zero:
            raise facering.ResidualNonzero(pos, "residual at v nonzero")
    return facering.InterpolationResult(total, tuple(steps))


def json_terms(p):
    """Reference --json shape of a polynomial: its sorted terms, each a
    {"coeff": c, "exps": [...]} dict."""
    return [{"coeff": c, "exps": list(e)} for e, c in p.sorted_terms()]


@pytest.fixture(autouse=True)
def cold_cli_cache():
    """Every test starts with no documents kept by cli.main, so a document
    that an earlier test prepared cannot skip a layer this test patches."""
    cli._prepared.cache_clear()


def input_path(name: str) -> Path:
    return INPUTS / f"{name}.json"


@pytest.fixture(scope="session")
def documents():
    return {name: load_document(input_path(name), read_text(input_path(name)))
            for name in GOOD_INPUTS}


@pytest.fixture(scope="session")
def graphs(documents):
    return {name: GkmGraph(build_polytope(doc), doc.lam, bott=doc.use_bott)
            for name, doc in documents.items()}


@pytest.fixture(scope="session")
def orders(documents, graphs):
    """Each document's vertex order, on the polytope of its graph."""
    return {name: resolve_order(doc, graphs[name].polytope)
            for name, doc in documents.items()}


@pytest.fixture(scope="session")
def perfbench_gen():
    """The manifold generators of perfbench/gen.py."""
    path = ROOT / "perfbench" / "gen.py"
    if not path.is_file():
        pytest.skip("no perfbench/gen.py in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def generated_graphs(gen, makers):
    """{name: (document, graph, order)} for each manifold make() builds,
    given a height by with_height(M, Random(1))."""
    out = {}
    for name, make in makers.items():
        doc = document_from_dict(gen.with_height(make(), random.Random(1)).document(), name)
        g = GkmGraph(build_polytope(doc), doc.lam)
        out[name] = (doc, g, resolve_order(doc, g.polytope))
    return out


@pytest.fixture(scope="session")
def generated(perfbench_gen):
    """perfbench/gen.py's cube4, bott4 and polygon9 (see generated_graphs)."""
    gen = perfbench_gen
    return generated_graphs(gen, {"cube4": lambda: gen.cube(4),
                                  "bott4": lambda: gen.bott(4, random.Random(4)),
                                  "polygon9": lambda: gen.polygon(9, random.Random(9))})


@pytest.fixture
def face_of_calls(monkeypatch):
    """The facet sets of each SimplePolytope.face_of call."""
    calls = []
    real = SimplePolytope.face_of

    def counted(P, facets):
        calls.append(facets)
        return real(P, facets)

    monkeypatch.setattr(SimplePolytope, "face_of", counted)
    return calls


@pytest.fixture
def short_rank(monkeypatch):
    """Every OrdinaryKModel reports one less than its true rank."""
    init = facering.OrdinaryKModel.__init__

    def patched(self, g, degree):
        init(self, g, degree)
        self.rank -= 1

    monkeypatch.setattr(facering.OrdinaryKModel, "__init__", patched)
