"""The K-theoretic face ring of (Q, Lambda) and its fixed-point realization.

The face ring is the Laurent polynomial ring on one generator y_i per
facet, modulo the products prod(1 - y_i) over minimal non-faces.  The map
phi sends y_i to the restriction tuple r_i whose entry at a vertex v is
the monomial of the dual-basis character of facet i at v (and 1 when the
vertex is off the facet).  phi is injective modulo the non-face products,
so ring identities are always verified through it.

interpolate() inverts phi constructively: walking the vertices in a height
order, it rewrites the current entry through the dual basis at that vertex
and subtracts its image on the face above the vertex only, certifying that
omega_v divides it (so the image is zero off that face) and that the vertex
comes first there (so no earlier entry moves).  It and basis_certificate()
take the order as an argument; nothing else here depends on one.

ordinary_rank() returns the certified Z-module model of the ordinary
quotient: kill the lattice relations by eliminating vertex 0's facet
variables, shift y = 1 + x, drop monomials above total degree n, and read
rank and torsion off a Smith normal form.  Every face-ring element, the
non-face products included, enters the model through the same expansion.
Any vertex would do as well: its lambda rows are a lattice basis, and
after its elimination a non-face product prod(1 - y_k) still starts in
degree |S|, so the model has the same d - n variables, monomials and
nonzero rows r * x^beta (those with |S| + |beta| <= n).
Degree n is exact, because every x_i lies in the augmentation ideal of a
2n-dimensional complex with only even cells, so by the Atiyah-Hirzebruch
filtration any product of n+1 of them vanishes.
Theory also fixes the answer, a free module of rank m, and the result is
checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from .gkm import FixedPointTuple, GkmGraph, in_w
from .lattice import SparseMat, dot, snf_diagonal
from .laurent import (
    DimensionMismatch,
    LaurentPoly,
    MonomialMap,
    face_profile,
    project_terms,
    substitute_monomial_map,
)
from .polytope import VertexOrder, fmt_facets


class NotInW(ValueError):
    """Interpolation input fails face-agreement membership."""

    def __init__(self, report):
        super().__init__("tuple is not in the restriction subring: "
                         + (report.witness.detail if report.witness else ""))
        self.report = report


class ResidualNonzero(RuntimeError):
    """An interpolation step failed its certificate (invalid vertex order)."""

    def __init__(self, step, check):
        super().__init__(f"step {step + 1}: {check}")
        self.step = step
        self.check = check


class CertificateFailure(ValueError):
    def __init__(self, message, position, entry=None):
        super().__init__(message)
        self.position = position
        self.entry = entry


class OrdinaryRankFailure(RuntimeError):
    """The degree-n model is not free of rank m, as theory requires."""


def theta(g: GkmGraph, u) -> LaurentPoly:
    """R-algebra structure map: e^u -> prod_i y_i^{<u, lambda_i>}."""
    if len(u) != g.n:
        raise DimensionMismatch(f"character length {len(u)} != {g.n}")
    exps = [dot(tuple(u), g.lam_row(i)) for i in range(1, g.d + 1)]
    if g.bott:
        exps.append(0)
    return LaurentPoly.monomial(g.face_profile, exps)


def constant_tuple(g: GkmGraph, value: LaurentPoly) -> FixedPointTuple:
    """Diagonal embedding of a character-profile element."""
    return FixedPointTuple.constant(g.char_profile, g.m, value)


def phi(g: GkmGraph, P: LaurentPoly) -> FixedPointTuple:
    """Evaluate a face-ring element on all fixed points at once."""
    if P.profile != g.face_profile:
        raise DimensionMismatch(f"{P.profile} != {g.face_profile}")
    return FixedPointTuple(g.char_profile, tuple(
        substitute_monomial_map(P, M, g.char_profile) for M in g.phi_maps))


def r_vector(g: GkmGraph, i: int) -> FixedPointTuple:
    """Fixed-point restriction tuple of the facet-i generator: phi(y_i)."""
    return phi(g, LaurentPoly.variable(g.face_profile, i - 1))


# -- interpolation ----------------------------------------------------------

@dataclass(frozen=True)
class InterpolationStep:
    position: int
    vertex: int
    poly: LaurentPoly


@dataclass(frozen=True)
class InterpolationResult:
    poly: LaurentPoly
    steps: tuple[InterpolationStep, ...]


def interpolate(g: GkmGraph, order: VertexOrder, t: FixedPointTuple) -> InterpolationResult:
    """Produce P with phi(P) == t for any tuple in the restriction subring.

    Membership is checked up front.  Step v takes p = step_v(residual[v]) and
    subtracts phi(p) only on F_v = face_of(order.extra[v]).  It raises
    ResidualNonzero unless p with y_i = 1 vanishes for each i in extra[v]
    (omega_v divides p: phi(p) is zero off F_v), v comes first in F_v and the
    residual at v is then zero, so a successful return is a certified preimage.
    """
    rep = in_w(g, t)
    if not rep.member:
        raise NotInW(rep)
    residual = list(t.entries)
    total = LaurentPoly.zero(g.face_profile)
    steps = []
    for pos, v in enumerate(order.order):
        p = substitute_monomial_map(residual[v], g.step_maps[v], g.face_profile)
        if not p.is_zero:
            facets = g.polytope.vertices[v]
            if any(project_terms(p.terms, g.face_pick(facets - {i})) for i in order.extra[v]):
                raise ResidualNonzero(pos, "step polynomial not divisible by omega_v")
            face = g.polytope.face_of(order.extra[v])
            if any(order.position[j] < pos for j in face.vertices):
                raise ResidualNonzero(pos, "face above v has an earlier vertex")
            for j in face.vertices:
                residual[j] = residual[j] - substitute_monomial_map(
                    p, g.phi_maps[j], g.char_profile)
            total = total + p
        steps.append(InterpolationStep(pos, v, p))
        if not residual[v].is_zero:
            raise ResidualNonzero(pos, "residual at v nonzero")
    return InterpolationResult(total, tuple(steps))


# -- kernel and basis certificate -------------------------------------------

def _nonface_product(profile, facets) -> LaurentPoly:
    p = LaurentPoly.one(profile)
    for k in sorted(facets):
        p = p * (LaurentPoly.one(profile) - LaurentPoly.variable(profile, k - 1))
    return p


def kernel_generators(g: GkmGraph) -> tuple[LaurentPoly, ...]:
    """One product prod(1 - y_k) per minimal non-face; each maps to zero under phi."""
    return tuple(_nonface_product(g.face_profile, S)
                 for S in g.polytope.minimal_nonfaces())


@dataclass(frozen=True)
class CertificateEntry:
    position: int
    vertex: int
    extra_facets: tuple[int, ...]   # facets of v not on the incoming-edge face
    omega: LaurentPoly
    diagonal: LaurentPoly           # phi(omega) at v itself


def basis_certificate(g: GkmGraph, order: VertexOrder) -> tuple[CertificateEntry, ...]:
    """Triangular free-module basis along a vertex order.

    omega_t is the product of (1 - y_i) over the facets of v_t that do not
    contain the face spanned by the incoming edges.  Verified: |S_t| equals
    the number of incoming edges, phi(omega_t) vanishes at all earlier
    vertices, and its value at v_t is a nonzero product of Euler classes.
    """
    P = g.polytope
    entries = []
    for pos, v in enumerate(order.order):
        extra = tuple(sorted(order.extra[v]))
        if len(extra) != order.ind[v]:
            raise CertificateFailure(
                f"vertex {fmt_facets(P.vertices[v])}: {len(extra)} extra facets "
                f"for index {order.ind[v]}", pos)
        omega = _nonface_product(g.face_profile, extra)
        img = phi(g, omega)
        for s in range(pos):
            if not img[order.order[s]].is_zero:
                raise CertificateFailure(
                    f"phi(omega_{pos + 1}) nonzero at earlier position {s + 1}",
                    pos, s)
        expected = LaurentPoly.one(g.char_profile)
        for i in extra:
            expected = expected * (LaurentPoly.one(g.char_profile)
                                   - LaurentPoly.char_monomial(g.char_profile, g.mu[v][i]))
        if img[v] != expected or img[v].is_zero:
            raise CertificateFailure(
                f"diagonal value at position {pos + 1} is not the Euler-class product",
                pos, pos)
        entries.append(CertificateEntry(pos, v, extra, omega, img[v]))
    return tuple(entries)


# -- the ordinary quotient ---------------------------------------------------

def lattice_relations(g: GkmGraph) -> tuple[LaurentPoly, ...]:
    """The relations that, with the non-face products, present the ordinary
    K-ring: theta(e_k) - 1 for each standard basis character e_k."""
    basis = [tuple(int(i == k) for i in range(g.n)) for k in range(g.n)]
    return tuple(theta(g, u) - 1 for u in basis)


def _elimination(g: GkmGraph):
    """(survivors, E): the facets off vertex 0 and the exponent map that
    eliminates vertex 0's facet variables."""
    block = sorted(g.polytope.vertices[0])
    survivors = [i for i in range(1, g.d + 1) if i not in g.polytope.vertices[0]]
    mu = g.mu[0]
    rows = []
    for si in survivors:
        row = [0] * g.d
        row[si - 1] = 1
        for b in block:
            row[b - 1] = -dot(mu[b], g.lam_row(si))
        rows.append(row)
    return survivors, MonomialMap.from_rows(rows, g.d)


def _binomial_series(e: int, cap: int):
    """Coefficients of (1 + x)^e modulo x^{cap+1}, e of either sign."""
    if e >= 0:
        return [comb(e, k) for k in range(min(e, cap) + 1)]
    return [(-1) ** k * comb(-e + k - 1, k) for k in range(cap + 1)]


class OrdinaryKModel:
    """Z-module model of the ordinary quotient at one truncation degree.

    All face variables except vertex 0's block are shifted by y = 1 + x;
    monomials of total degree > degree are declared zero.  At
    degree n this is exact: each x_i is in the first Atiyah-Hirzebruch
    filtration of the 2n-dimensional even-cell complex, so any product of
    n+1 of them is zero.  The relation matrix has one sparse row
    {monomial: coeff} per nonzero product r * x^beta of a generator r with
    a monomial beta, and one column per monomial; its Smith form yields
    rank and torsion.  gens are the non-face products, kernel_generators(g).
    """

    def __init__(self, g: GkmGraph, degree: int, gens):
        self.graph = g
        self.degree = degree
        survivors, self._E = _elimination(g)
        self.survivors = tuple(survivors)
        self.monomials = self._monomials(len(survivors), degree)
        rows = []
        for r in map(self._expand, gens):
            terms = [(e, sum(e), c) for e, c in r.items()]
            for beta in self.monomials:
                room = degree - sum(beta)
                # distinct terms of r stay distinct after the shift by beta
                row = {tuple(a + b for a, b in zip(e, beta)): c
                       for e, deg, c in terms if deg <= room}
                if row:
                    rows.append(row)
        self.rows = tuple(rows)
        diag = snf_diagonal(SparseMat(len(self.monomials), self.rows))
        self._nonzero_factors = tuple(sorted(d for d in diag if d != 0))
        self.rank = len(self.monomials) - len(self._nonzero_factors)
        self.torsion = tuple(d for d in self._nonzero_factors if d != 1)

    @property
    def torsion_free(self) -> bool:
        return not self.torsion

    @staticmethod
    def _monomials(nvars: int, degree: int) -> list:
        """Exponent tuples of total degree <= degree, lowest degree first."""
        return [tuple(combo.count(j) for j in range(nvars))
                for d in range(degree + 1)
                for combo in combinations_with_replacement(range(nvars), d)]

    def _shift(self, p: LaurentPoly) -> dict:
        """Substitute y = 1 + x in each survivor variable, truncated.

        A term's expansion grows one coordinate per variable as (exponent
        prefix, degree, coefficient); its exponents stay distinct, so terms
        merge only into the output.
        """
        cap = self.degree
        out = {}
        for exp, c in p.terms.items():
            partial = [((), 0, c)]
            for e in exp:
                series = _binomial_series(e, cap)
                partial = [(pre + (k,), deg + k, pc * series[k])
                           for pre, deg, pc in partial
                           for k in range(min(len(series) - 1, cap - deg) + 1)]
            for e, _, v in partial:
                w = out.get(e, 0) + v
                if w:
                    out[e] = w
                elif e in out:
                    del out[e]
        return out

    def _expand(self, elem: LaurentPoly) -> dict:
        """A face-ring element in the shifted survivor variables, truncated:
        drop a zero z exponent (the model is Bott-free), eliminate the base
        vertex's variables, then substitute y = 1 + x."""
        if elem.profile.bott:
            if any(e[-1] for e in elem.terms):
                raise DimensionMismatch("ordinary model is Bott-free")
            elem = LaurentPoly(face_profile(self.graph.d),
                               {e[:-1]: c for e, c in elem.terms.items()})
        return self._shift(substitute_monomial_map(
            elem, self._E, face_profile(len(self.survivors))))

    def reduce(self, elem: LaurentPoly):
        """Coefficient vector of a face-ring element over the truncated monomials."""
        terms = self._expand(elem)
        return tuple(terms.get(e, 0) for e in self.monomials)

    def is_zero(self, elem: LaurentPoly) -> bool:
        """Does the element vanish in the truncated quotient?"""
        terms = self._expand(elem)
        if not terms:
            return True
        diag = snf_diagonal(SparseMat(len(self.monomials), self.rows + (terms,)))
        return tuple(sorted(d for d in diag if d != 0)) == self._nonzero_factors


def ordinary_rank(g: GkmGraph, gens) -> OrdinaryKModel:
    """The certified model of the ordinary quotient at degree n.

    One model at the exact truncation degree n is built; its rank, torsion
    and degree are the answer.  The ordinary K-ring is free of rank m, so
    any other answer raises OrdinaryRankFailure, never a silent answer.
    gens are the non-face products, kernel_generators(g).
    """
    model = OrdinaryKModel(g, g.n, gens)
    if model.rank != g.m or not model.torsion_free:
        raise OrdinaryRankFailure(
            f"truncation degree {g.n} gives rank {model.rank}"
            + (f" with torsion {list(model.torsion)}" if model.torsion else "")
            + f", expected a free module of rank {g.m}")
    return model
