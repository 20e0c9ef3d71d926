"""Fixed-point side of the equivariant K-ring of a quasitoric manifold.

Vertices of the polytope are the torus fixed points.  Every vertex v
carries the basis mu(v) dual to its facet cocharacters lambda_i
(polytope.dual_bases finds them all, walking the edges from one
inversion; validate_characteristic hands them to the graph).  Every edge
carries the primitive character orthogonal to the cocharacters of the
n-1 facets containing it: mu_i(v) for the one facet i of an endpoint v
off the edge, up to sign.  Elements of the big product ring are
FixedPointTuples: one Laurent polynomial in the character variables per
fixed point.

Every exponent map here is a sparse MonomialMap.  phi at v reads only
the exponents at v's n facets, since y_i -> 1 off them; the step map at v
writes only those n exponents, <u, lambda_i> for each facet i of v.  A
character restricts to a face by pairing it with lambda_i for each facet
i of the face, so one restriction map, e^u -> prod over all d facets of
y_i^{<u, lambda_i>} (its block is Lambda), serves every face: in_w
projects its image onto the face's facets, and no face or vertex keeps a
map of its own for it.  On e^u the same map is facering.theta.

Two membership predicates cut out the image of the K-ring:

* in_gamma -- for every edge, the entry difference is divisible by the
  K-theoretic Euler class 1 - e^{-u} of the edge character u;
* in_w     -- for every vertex pair, the two entries agree after
  restriction to the minimal face containing both vertices, the one cut
  out by their shared facets.

The two predicates agree; in_w deliberately checks all pairs rather than
reducing to edges so that the agreement stays independent evidence.

The graph holds no vertex order: (Q, Lambda) alone fix it and both
predicates.  A height order enters only the constructive steps, so
facering's interpolate and basis_certificate take one as an argument, and
the CLI's gkm report (and its DOT text) numbers the vertices by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, mul, sub
from typing import Optional, Sequence

from .lattice import NotUnimodular, normalize_sign
from .laurent import (
    LaurentPoly,
    MonomialMap,
    Profile,
    ProfileMismatch,
    char_profile,
    coordinate_getter,
    divides_one_minus,
    face_profile,
    project_terms,
    substitute_monomial_map,
)
from .polytope import (
    SimplePolytope,
    ValidationReport,
    fmt_facets,
    validate_characteristic,
)


@dataclass(frozen=True)
class GkmEdge:
    v: int
    w: int
    facets: frozenset[int]
    character: tuple[int, ...]  # primitive, first nonzero coordinate positive


class FixedPointTuple:
    """One Laurent polynomial per fixed point, all in one character profile."""

    __slots__ = ("profile", "entries")

    def __init__(self, profile: Profile, entries: Sequence[LaurentPoly]):
        entries = tuple(entries)
        for a in entries:
            if a.profile != profile:
                raise ProfileMismatch(f"{a.profile} != {profile}")
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("FixedPointTuple is immutable")

    @staticmethod
    def constant(profile: Profile, m: int, value: LaurentPoly) -> "FixedPointTuple":
        return FixedPointTuple(profile, (value,) * m)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, FixedPointTuple):
            return NotImplemented
        return self.profile == other.profile and self.entries == other.entries

    def __hash__(self):
        return hash((self.profile, self.entries))

    def _entrywise(self, op, other):
        if len(other) != len(self):
            raise ValueError(f"tuples of {len(self)} and {len(other)} entries")
        return FixedPointTuple(self.profile, tuple(map(op, self.entries, other.entries)))

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def __mul__(self, other):
        if isinstance(other, FixedPointTuple):
            return self._entrywise(mul, other)
        return FixedPointTuple(self.profile, tuple(a * other for a in self.entries))

    __rmul__ = __mul__

    def replace(self, i: int, value: LaurentPoly) -> "FixedPointTuple":
        entries = list(self.entries)
        entries[i] = value
        return FixedPointTuple(self.profile, entries)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.entries)

    def text(self) -> str:
        return "(" + ", ".join(a.text() for a in self.entries) + ")"


@dataclass(frozen=True)
class MembershipWitness:
    kind: str                      # "edge" or "pair"
    v: int
    w: int
    detail: str

    def text(self, P: SimplePolytope) -> str:
        a = fmt_facets(P.vertices[self.v])
        b = fmt_facets(P.vertices[self.w])
        return f"{self.kind} {a} -- {b}: {self.detail}"


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    witness: Optional[MembershipWitness] = None


class GkmGraph:
    """Vertex/edge character data attached to a validated (polytope, lambda) pair."""

    def __init__(self, polytope: SimplePolytope, lam, bott: bool = False, mu=None):
        """mu is the per-vertex dual basis that validate_characteristic found
        for this (polytope, lam); without it the graph runs that check, and a
        failing one raises NotUnimodular with its failures."""
        self.polytope = polytope
        self.lam = tuple(map(tuple, lam))
        self.bott = bott
        self.char_profile = char_profile(polytope.dim, bott)
        self.face_profile = face_profile(polytope.facet_count, bott)
        if mu is None:
            report = validate_characteristic(polytope, self.lam)
            if not report.ok:
                raise NotUnimodular("; ".join(report.failures))
            mu = report.mu
        self.mu = tuple(mu)
        self.picks = {}     # facet set -> its face_pick, built on first use
        self.edges = tuple(
            GkmEdge(v, w, fs, self._edge_character(v, fs))
            for v, w, fs in polytope.edges())

    @property
    def n(self) -> int:
        return self.polytope.dim

    @property
    def d(self) -> int:
        return self.polytope.facet_count

    @property
    def m(self) -> int:
        return self.polytope.m

    def lam_row(self, i: int) -> tuple:
        """Cocharacter of facet i (1-based)."""
        return self.lam[i - 1]

    def _edge_character(self, v: int, facets) -> tuple:
        """mu_i(v) for the one facet i of v off the edge: a row of a unimodular
        matrix, so primitive, and orthogonal to lambda_j for every facet j on it."""
        (i,) = self.polytope.vertices[v] - facets
        return normalize_sign(self.mu[v][i])

    def face_pick(self, facets: frozenset):
        """Face exponents -> those at facets, ascending, then z: y_i -> 1 off
        facets.  Built once per facet set and kept in picks."""
        pick = self.picks.get(facets)
        if pick is None:
            pick = self.picks[facets] = coordinate_getter(
                tuple(i - 1 for i in sorted(facets)) + ((self.d,) if self.bott else ()))
        return pick

    # -- per-vertex exponent maps (z passes through), built on first use
    @cached_property
    def phi_maps(self) -> tuple[MonomialMap, ...]:
        """Per vertex v: face exponents -> character exponents, y_i -> e^{mu_i(v)}.

        y_i -> 1 for every facet i off v, so the map reads only the n
        exponents at v's facets: its block is the n x n dual basis, one
        column mu_i(v) per facet i of v.
        """
        maps = []
        for mu in self.mu:
            facets = sorted(mu)
            block = tuple(zip(*(mu[i] for i in facets)))
            maps.append(MonomialMap(self.face_profile, self.char_profile,
                                    [i - 1 for i in facets], range(self.n), block))
        return tuple(maps)

    @cached_property
    def restriction_map(self) -> MonomialMap:
        """e^u -> prod of y_i^{<u, lambda_i>} over all d facets: its block is
        Lambda.  On e^u it is theta; projected onto the facets of a face it
        is the restriction to that face; onto the facets of a vertex, that
        vertex's step map."""
        return MonomialMap(self.char_profile, self.face_profile,
                           range(self.n), range(self.d), self.lam)

    @cached_property
    def step_maps(self) -> tuple[MonomialMap, ...]:
        """Per vertex: e^u -> prod of y_i^{<u, lambda_i>} over the facets i at the
        vertex, a right inverse of that vertex's phi map.  It writes only the
        exponents at v's facets, one row lambda_i each."""
        maps = []
        for fs in self.polytope.vertices:
            facets = sorted(fs)
            maps.append(MonomialMap(self.char_profile, self.face_profile, range(self.n),
                                    [i - 1 for i in facets], [self.lam_row(i) for i in facets]))
        return tuple(maps)


def euler_coprimality_check(g: GkmGraph) -> ValidationReport:
    """At every vertex: incident edge characters nonzero and pairwise independent."""
    fails = []
    incident = [[] for _ in range(g.m)]
    for e in g.edges:
        incident[e.v].append(e)
        incident[e.w].append(e)
    for v in range(g.m):
        chars = [e.character for e in incident[v]]
        name = fmt_facets(g.polytope.vertices[v])
        for u in chars:
            if not any(u):
                fails.append(f"vertex {name}: zero edge character")
        for a in range(len(chars)):
            for b in range(a + 1, len(chars)):
                u, w = chars[a], chars[b]
                if all(u[i] * w[j] == u[j] * w[i]
                       for i in range(g.n) for j in range(i + 1, g.n)) and g.n > 1:
                    fails.append(
                        f"vertex {name}: dependent edge characters {u} and {w}")
    return ValidationReport(tuple(fails))


def in_gamma(g: GkmGraph, t: FixedPointTuple) -> MembershipReport:
    """Edge-divisibility membership: (1 - e^{-u}) | a_v - a_w on every edge."""
    _check_tuple(g, t)
    for e in g.edges:
        diff = t[e.v] - t[e.w]
        if not divides_one_minus(diff, e.character):
            return MembershipReport(False, MembershipWitness(
                "edge", e.v, e.w,
                f"difference {diff.text()} not divisible by 1 - e^-{e.character}"))
    return MembershipReport(True)


def in_w(g: GkmGraph, t: FixedPointTuple) -> MembershipReport:
    """Face-agreement membership: restrictions agree at the join of every pair,
    the face of the facets S both share (a facet through all of that face
    passes through both), compared as projections onto S of each entry's
    image under the restriction map, which is made once per entry; the
    projection is the graph's face_pick, made once per facet set."""
    _check_tuple(g, t)
    P = g.polytope
    R = g.restriction_map
    images = [substitute_monomial_map(a, R).terms for a in t]
    for v in range(g.m):
        for w in range(v + 1, g.m):
            S = P.vertices[v] & P.vertices[w]
            pick = g.face_pick(S)
            a = project_terms(images[v], pick)
            b = project_terms(images[w], pick)
            if a != b:
                profile = char_profile(len(S), g.bott)
                return MembershipReport(False, MembershipWitness(
                    "pair", v, w,
                    f"restrictions to {P.face_of(S).label()} differ: "
                    f"{LaurentPoly(profile, a).text()} vs {LaurentPoly(profile, b).text()}"))
    return MembershipReport(True)


def _check_tuple(g: GkmGraph, t: FixedPointTuple):
    if len(t) != g.m:
        raise ValueError(f"tuple has {len(t)} entries for {g.m} fixed points")
    if t.profile != g.char_profile:
        raise ProfileMismatch(f"{t.profile} != {g.char_profile}")
