"""The K-theoretic face ring of (Q, Lambda) and its fixed-point realization.

The face ring is the Laurent polynomial ring on one generator y_i per
facet, modulo the products prod(1 - y_i) over minimal non-faces.  The map
phi sends y_i to the restriction tuple r_i whose entry at a vertex v is
the monomial of the dual-basis character of facet i at v (and 1 when the
vertex is off the facet).  phi is injective modulo the non-face products,
so ring identities are always verified through it.

interpolate() inverts phi constructively: walking the vertices in a height
order, it reads each entry once, at its vertex's step, and three checks
certify each step and decide membership.  It and basis_certificate() read
the faces F_v of the order they are given; nothing else here needs one.

The non-face products and the basis elements omega_v = prod(1 - y_k)
are each fixed by a facet set S.  Only kernel_generators() writes them
out, term by term.  basis_certificate() builds no omega_v: phi(omega_v)
at a vertex u is prod(1 - e^{mu_k(u)}) over S when u lies on every facet
of S and 0 otherwise, so vanishing is read from the facet sets, and the
value at v from the |S| images of the y_k.  The CLI reports each product
by its facet set only, and each r_i by the vertices on facet i with their
characters mu_i(v) only, every other entry being 1.

ordinary_rank() returns the certified Z-module model of the ordinary
quotient: kill the lattice relations by eliminating vertex 0's facet
variables, shift y = 1 + x, drop monomials above total degree n, and read
rank and torsion off a Smith normal form.  A non-face product enters the
model factor by factor: each 1 - y_k starts in degree 1 after the shift,
so it is expanded only to degree n - |S| + 1 and the truncated factors
are multiplied.  Any vertex would do as well: its lambda rows are a
lattice basis, and after its elimination a non-face product still starts
in degree |S|, so the model has the same d - n variables, monomials and
nonzero rows r * x^beta (those with |S| + |beta| <= n).  Each monomial
is keyed by one int, sum of e_j * (n + 1)^j: every exponent is >= 0 and
no kept product passes degree n, so each e_j is one digit and shifting
by beta adds codes without a carry.
A non-face S made only of survivors, the facets off vertex 0 whose
variables remain, has prod(1 - y_s) = (-1)^|S| x^S, one monomial, so
each of its rows is a unit on one column: a pivot whose only effect is to
kill that column.  The model counts those rows and records the killed
columns without building them, drops the killed columns from the other
rows, and runs the Smith form on the columns left.
Degree n is exact, because every x_i lies in the augmentation ideal of a
2n-dimensional complex with only even cells, so by the Atiyah-Hirzebruch
filtration any product of n+1 of them vanishes.
Theory also fixes the answer, a free module of rank m, and the result is
checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from math import comb

from .gkm import FixedPointTuple, GkmGraph, _check_tuple
from .lattice import SparseMat, dot, snf_diagonal
from .laurent import (
    LaurentPoly,
    _raw,
    add_terms,
    keep_terms,
    project_terms,
    substitute_monomial_map,
)
from .polytope import VertexOrder, fmt_facets


class ResidualNonzero(RuntimeError):
    """An interpolation step failed its certificate: the tuple is not in the
    image of phi, or the vertex order is not a valid height order."""

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
    """R-algebra structure map: e^u -> prod_i y_i^{<u, lambda_i>}, the
    graph's restriction map on e^u."""
    return substitute_monomial_map(LaurentPoly.char_monomial(g.char_profile, u),
                                   g.restriction_map)


def constant_tuple(g: GkmGraph, value: LaurentPoly) -> FixedPointTuple:
    """Diagonal embedding of a character-profile element."""
    return FixedPointTuple.constant(g.char_profile, g.m, value)


def phi(g: GkmGraph, P: LaurentPoly) -> FixedPointTuple:
    """Evaluate a face-ring element on all fixed points at once."""
    return FixedPointTuple(g.char_profile, tuple(
        substitute_monomial_map(P, M) for M in g.phi_maps))


def r_vector(g: GkmGraph, i: int) -> FixedPointTuple:
    """Fixed-point restriction tuple of the facet-i generator, phi(y_i):
    e^{mu_i(v)} at each vertex v on facet i, 1 elsewhere.  The mu rows are
    int tuples of the validated graph, so the monomials are built raw."""
    prof = g.char_profile
    z = (0,) if prof.bott else ()
    one = _raw(prof, {(0,) * prof.nvars: 1})
    return FixedPointTuple(prof, tuple(
        _raw(prof, {mu[i] + z: 1}) if i in mu else one for mu in g.mu))


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
    """Produce P with phi(P) == t, or raise ResidualNonzero if t is not in
    the image of phi.

    Only the tuple's shape is checked up front (ValueError for the wrong
    length, ProfileMismatch for the wrong profile); the steps decide
    membership.  owed[v] is the sum of the step polynomials p_u of the
    earlier u whose face F_u = order.face[u] holds v.  Step v
    takes s = step_v(t[v]) and p_v = s - pi_v(owed[v]), where pi_v keeps the
    exponents that phi_v reads (v's facets and z) and zeroes the rest; then
    it adds p_v to owed[j] for the other vertices j of F_v.  This is the
    step polynomial of the residual t[v] - phi_v(owed[v]) without forming
    it, since step_v(phi_v(q)) = pi_v(q) (mu(v) is dual to lambda at v).
    Each step raises ResidualNonzero unless

    * phi_v(s) == t[v] ("residual at v nonzero"),
    * p_v with y_i = 1 vanishes for each i in extra[v] (omega_v divides
      p_v, so phi_w(p_v) = 0 at every w off F_v), and
    * v comes first in F_v (so p_v adds nothing at an earlier vertex).

    Together they give phi(P) == t: by the second and third, phi_v(P) is
    phi_v(owed[v]) + phi_v(p_v), and phi_v(pi_v(q)) = phi_v(q) makes that
    phi_v(s), which the first check compares with t[v].  So a successful
    return is a certified preimage.  On an order from validate_order only
    a non-member (the second check) or a bug in the maps (the first) fails;
    the third is validate_order's own check, reached only by orders that
    skip it.
    """
    _check_tuple(g, t)
    nvars = g.face_profile.nvars
    z = (g.d,) if g.bott else ()
    owed = {}
    total = {}
    steps = []
    for pos, v in enumerate(order.order):
        s = substitute_monomial_map(t.entries[v], g.step_maps[v])
        if substitute_monomial_map(s, g.phi_maps[v]) != t.entries[v]:
            raise ResidualNonzero(pos, "residual at v nonzero")
        owed_v = keep_terms(owed.pop(v, {}), g.phi_maps[v].source + z, nvars)
        terms = add_terms(dict(s.terms), owed_v.items(), -1)
        if terms:
            facets = g.polytope.vertices[v]
            if any(project_terms(terms, g.face_pick(facets - {i})) for i in order.extra[v]):
                raise ResidualNonzero(pos, "step polynomial not divisible by omega_v")
            face = order.face[v]
            if any(order.position[j] < pos for j in face.vertices):
                raise ResidualNonzero(pos, "face above v has an earlier vertex")
            for j in face.vertices:
                if j != v:
                    add_terms(owed.setdefault(j, {}), terms.items())
            add_terms(total, terms.items())
        steps.append(InterpolationStep(pos, v, _raw(g.face_profile, terms)))
    return InterpolationResult(_raw(g.face_profile, total), tuple(steps))


# -- kernel and basis certificate -------------------------------------------

def _nonface_product(profile, facets) -> LaurentPoly:
    """prod(1 - y_k) over distinct facets, as the sum over subsets T of
    (-1)^|T| prod of y_k over T.  Distinct unit vectors have distinct subset
    sums, so no two terms merge and none is zero."""
    terms = {(0,) * profile.nvars: 1}
    for k in facets:
        terms.update([(e[:k - 1] + (1,) + e[k:], -c) for e, c in terms.items()])
    return _raw(profile, terms)


def kernel_generators(g: GkmGraph) -> tuple[LaurentPoly, ...]:
    """One product prod(1 - y_k) per minimal non-face; each maps to zero under phi."""
    return tuple(_nonface_product(g.face_profile, S)
                 for S in g.polytope.minimal_nonfaces())


@dataclass(frozen=True)
class CertificateEntry:
    """omega_v is prod(1 - y_k) over extra_facets; the set names it."""
    position: int
    vertex: int
    extra_facets: tuple[int, ...]   # facets of v not on the incoming-edge face


def basis_certificate(g: GkmGraph, order: VertexOrder) -> tuple[CertificateEntry, ...]:
    """Triangular free-module basis along a vertex order.

    omega_t is the product of (1 - y_i) over the facets S_t of v_t that do
    not contain the face spanned by the incoming edges.  Verified: |S_t|
    equals the number of incoming edges, phi(omega_t) vanishes at all
    earlier vertices, and its value at v_t is a nonzero product of Euler
    classes.  At a vertex u, phi(omega_t) is prod(1 - e^{mu_i(u)}) over S_t
    when u lies on every facet of S_t and 0 otherwise (y_i -> 1 off facet
    i); each mu_i(u) is a nonzero character and Z[M] is a domain, so it
    vanishes exactly off order.face[v_t]: the earlier check reads its
    vertices' positions.  No omega_t is built.  phi_v is a monomial
    substitution, so phi_v(omega_t) = prod(1 - phi_v(y_i)), and the diagonal
    maps the |S_t|-term sum of the y_i and asks for exactly the terms
    e^{mu_i(v_t)}, each with coefficient 1 (a repeated image reads 2).  As
    the mu_i(v_t) are part of a lattice basis, each 1 - e^{mu_i(v_t)} is
    irreducible and the product is nonzero, and by unique factorization no
    other images of the y_i give it.  Only this check can fail on a
    validated order, through a bug in the maps.
    """
    zero = (0,) * g.face_profile.nvars
    z = (0,) * g.bott
    entries = []
    for pos, v in enumerate(order.order):
        extra = tuple(sorted(order.extra[v]))
        if len(extra) != order.ind[v]:
            raise CertificateFailure(
                f"vertex {fmt_facets(g.polytope.vertices[v])}: {len(extra)} extra facets "
                f"for index {order.ind[v]}", pos)
        s = min(order.position[u] for u in order.face[v].vertices)
        if s < pos:
            raise CertificateFailure(
                f"phi(omega_{pos + 1}) nonzero at earlier position {s + 1}", pos, s)
        y_sum = _raw(g.face_profile, {zero[:k - 1] + (1,) + zero[k:]: 1 for k in extra})
        image = substitute_monomial_map(y_sum, g.phi_maps[v])
        if image.terms != {g.mu[v][k] + z: 1 for k in extra}:
            raise CertificateFailure(
                f"diagonal value at position {pos + 1} is not the Euler-class product",
                pos, pos)
        entries.append(CertificateEntry(pos, v, extra))
    return tuple(entries)


# -- the ordinary quotient ---------------------------------------------------

def lattice_relations(g: GkmGraph) -> tuple[LaurentPoly, ...]:
    """The relations that, with the non-face products, present the ordinary
    K-ring: theta(e_k) - 1 for each standard basis character e_k."""
    basis = [tuple(int(i == k) for i in range(g.n)) for k in range(g.n)]
    return tuple(theta(g, u) - 1 for u in basis)


def _elimination(g: GkmGraph):
    """(survivors, image): the facets off vertex 0, and image[k] the survivor
    exponents of y_k once the lattice relations eliminate vertex 0's facets:
    y_b = prod over survivors s of y_s^{-<mu_b(0), lambda_s>}."""
    base = g.polytope.vertices[0]
    survivors = [i for i in range(1, g.d + 1) if i not in base]
    image = {k: tuple(int(k == s) for s in survivors) for k in survivors}
    image.update({b: tuple(-dot(mu, g.lam_row(s)) for s in survivors)
                  for b, mu in g.mu[0].items()})
    return survivors, image


def _binomial_series(e: int, cap: int):
    """Coefficients of (1 + x)^e modulo x^{cap+1}, e of either sign."""
    if e >= 0:
        return [comb(e, k) for k in range(min(e, cap) + 1)]
    return [(-1) ** k * comb(-e + k - 1, k) for k in range(cap + 1)]


def _shift(exp, cap: int, base: int) -> list:
    """y^exp with y = 1 + x in each variable, truncated at total degree cap,
    as (code, degree, coeff), the x-exponents e coded as sum of e_j * base^j.
    Only nonzero exponents expand; each choice of powers is a distinct term
    with a nonzero coefficient, so nothing merges.  Each power is at most
    cap, so the code is carry-free when cap < base."""
    partial = [(0, 0, 1)]
    unit = 1
    for e in exp:
        if e:
            series = _binomial_series(e, cap)
            partial = [(code + k * unit, deg + k, c * series[k])
                       for code, deg, c in partial
                       for k in range(min(len(series) - 1, cap - deg) + 1)]
        unit *= base
    return partial


class OrdinaryKModel:
    """Z-module model of the ordinary quotient at one truncation degree.

    Vertex 0's facet variables are eliminated, the others shifted by
    y = 1 + x; monomials of total degree > degree are declared zero.  At
    degree n this is exact: each x_i is in the first Atiyah-Hirzebruch
    filtration of the 2n-dimensional even-cell complex, so any product of
    n+1 of them is zero.  The relation matrix has one row per nonzero
    product r * x^beta of a non-face product r with a monomial beta, and
    one column per monomial; its Smith form yields rank and torsion.  The
    non-faces are the polytope's own.  For a non-face S of survivors only
    (sharing no facet with vertex 0), r is (-1)^|S| x^S, so its rows are units on the
    columns x^S * x^beta: those are recorded in killed, and each row is
    only counted.  Every other r is multiplied out of its truncated factors
    (_nonface_terms), and its rows r * x^beta, with the killed columns
    dropped, are kept in rows as sparse {monomial: coeff}; a row whose beta
    is killed has every column killed, since killed is closed under
    multiplication within the degree.  A unit row splits off exactly,
    SNF = 1 (+) SNF(rest), so rank is N - |killed| - (nonzero invariants of
    rows), and the torsion is theirs.  row_count counts every row, the
    killed ones included.

    Every monomial is keyed by one int, its code sum of e_j * base^j over
    the survivors j, with base = degree + 1.  Every exponent in the model
    is >= 0 and no term kept has total degree above degree, so each e_j is
    a base-(degree + 1) digit: the code is injective, and the product of
    two kept monomials is the sum of their codes, with no carry.
    """

    def __init__(self, g: GkmGraph, degree: int):
        self.graph = g
        self.degree = degree
        self.base = degree + 1
        survivors, self._image = _elimination(g)
        self.survivors = tuple(survivors)
        layers = self._monomials(len(survivors), degree)
        self.monomials = tuple(chain.from_iterable(layers))
        self._factors = {}      # (k, cap) -> _factor(k, cap); facets recur across non-faces
        nonfaces = g.polytope.minimal_nonfaces()
        base0 = g.polytope.vertices[0]
        unit = {s: self.base ** j for j, s in enumerate(survivors)}
        killed = set()
        count = 0
        for S in nonfaces:
            if len(S) <= degree and S.isdisjoint(base0):
                # prod(1 - y_s) = (-1)^|S| x^S: each row is a unit on one column
                code = sum(unit[s] for s in S)
                for betas in layers[:degree - len(S) + 1]:
                    killed.update([code + beta for beta in betas])
                    count += len(betas)
        # killed is closed under multiplication within the degree, so a row
        # whose beta is killed has every column killed: only live betas shift
        live = [[beta for beta in betas if beta not in killed] for betas in layers]
        rows = []
        for S in nonfaces:
            if S.isdisjoint(base0):
                continue
            terms = self._nonface_terms(S)
            for room, betas, shifts in zip(range(degree, -1, -1), layers, live):
                kept = [(e, c) for e, deg, c in terms if deg <= room]
                if not kept:
                    break       # room only shrinks from one layer to the next
                count += len(betas)
                # distinct terms of r stay distinct after the shift by beta
                rows.extend({e + beta: c for e, c in kept} for beta in shifts)
        if killed:      # drop the killed columns, and the rows they empty
            rows = [row for row in (r if killed.isdisjoint(r) else
                                    {e: c for e, c in r.items() if e not in killed}
                                    for r in rows) if row]
        self.killed = frozenset(killed)
        self.rows = tuple(rows)
        self.row_count = count
        diag = snf_diagonal(SparseMat(len(self.monomials) - len(killed), self.rows))
        factors = sorted(d for d in diag if d != 0)
        self.rank = len(self.monomials) - len(killed) - len(factors)
        self.torsion = tuple(d for d in factors if d != 1)

    @property
    def torsion_free(self) -> bool:
        return not self.torsion

    @staticmethod
    def _monomials(nvars: int, degree: int) -> list:
        """Codes of the monomials of total degree <= degree, one list per
        degree, lowest first, each in combinations_with_replacement order."""
        unit = [(degree + 1) ** j for j in range(nvars)]
        return [[sum([unit[j] for j in combo])
                 for combo in combinations_with_replacement(range(nvars), d)]
                for d in range(degree + 1)]

    def _factor(self, k: int, cap: int) -> list:
        """1 - y_k in the shifted survivor variables, truncated at degree cap,
        as (code, degree, coeff).

        The elimination sends y_k to a monomial in the survivors; shifted,
        its constant term (code 0) is 1, which cancels, so every term left
        has degree >= 1."""
        if (k, cap) not in self._factors:
            self._factors[k, cap] = [(e, deg, -c) for e, deg, c
                                     in _shift(self._image[k], cap, self.base) if e]
        return self._factors[k, cap]

    def _nonface_terms(self, S) -> list:
        """prod(1 - y_k) over S in the shifted survivor variables, truncated
        at the model's degree, as (code, degree, coeff) with coeff != 0.
        Every factor starts in degree 1, so each is needed only to degree
        degree - |S| + 1, and after j factors the partial product only to
        degree - (|S| - j)."""
        cap = self.degree - len(S) + 1
        if cap < 1:
            return []
        acc = [(0, 0, 1)]
        for j, k in enumerate(sorted(S)):
            room = cap + j
            factor = self._factor(k, cap)
            prod, degs = {}, {}
            for e, deg, c in acc:
                for f, fdeg, fc in factor:
                    if deg + fdeg <= room:
                        key = e + f
                        prod[key] = prod.get(key, 0) + c * fc
                        degs[key] = deg + fdeg
            acc = [(e, degs[e], c) for e, c in prod.items() if c]
        return acc


def ordinary_rank(g: GkmGraph) -> OrdinaryKModel:
    """The certified model of the ordinary quotient at degree n.

    One model at the exact truncation degree n is built from the
    polytope's minimal non-faces; its rank, torsion and degree are the
    answer.  The ordinary K-ring is free of rank m, so any other answer
    raises OrdinaryRankFailure, never a silent answer.
    """
    model = OrdinaryKModel(g, g.n)
    if model.rank != g.m or not model.torsion_free:
        raise OrdinaryRankFailure(
            f"truncation degree {g.n} gives rank {model.rank}"
            + (f" with torsion {list(model.torsion)}" if model.torsion else "")
            + f", expected a free module of rank {g.m}")
    return model
