"""Combinatorial model of a simple polytope via vertex-facet incidence.

A polytope of dimension n with d facets is given by its m vertices, each
recorded as the set of exactly n facets containing it.  Facet indices are
1-based everywhere (input, output, witness messages); vertices are 0-based
positions into the input list.

Three facts are built once, lazily.  The ridge map (each (n-1)-subset of
a vertex's facets -> the vertices holding it) gives validation's ridge
checks and the edges.  The facet masks (facet i -> the vertices on it,
vertex v as bit 1 << v) give face_of, whose vertices are their AND.  The
subset table (the facet bit mask of every subset S of a vertex's facet
set -> L(S), the OR of the masks of the vertices on S) gives only the
minimal non-faces; face_of and validate_order never build it, since a
simplex has 2^n subsets at each of its n + 1 vertices.

The dual bases mu(v) of the characteristic matrix are found by walking
the edge graph: across an edge, w's block is v's with one row exchanged,
so w's basis follows from v's in O(n^2), and the coefficient c of that
exchange is w's determinant up to sign (see dual_bases).  Elimination
runs only at a root of the walk.

Only incidence combinatorics is modelled.  Geometric realizability is not
decided: validation checks the necessary local conditions (simplicity,
edge counts, connectivity) and trusts the input beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .lattice import NotUnimodular, dual_basis, is_primitive


class NotAFace(ValueError):
    """The requested facet set has empty intersection."""


class NonGenericHeight(ValueError):
    """The height function ties on an edge."""


class InvalidOrder(ValueError):
    """A vertex order without the unique-minimal-vertex property."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class CharacteristicReport(ValidationReport):
    """validate_characteristic's report; mu[v] = {facet i: mu_i(v)}, the dual
    basis at each vertex, when every vertex block is unimodular."""

    mu: Optional[tuple[dict, ...]] = None


@dataclass(frozen=True)
class Face:
    """A nonempty face: its full (saturated) facet set and its vertices."""

    facets: frozenset[int]
    vertices: tuple[int, ...]

    @property
    def is_whole(self) -> bool:
        return not self.facets

    def label(self) -> str:
        if self.is_whole:
            return "the whole polytope"
        return "face " + fmt_facets(self.facets)


def fmt_facets(s) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


@dataclass(frozen=True)
class VertexOrder:
    """A validated total vertex order with per-vertex edge orientation data.
    No check downstream that v comes first in face[v] or that |extra[v]| is
    ind[v] fails on it; the others catch non-members and bugs in the maps."""

    order: tuple[int, ...]      # vertex ids, source first
    position: tuple[int, ...]   # position[v] = rank of vertex v
    ind: tuple[int, ...]        # ind[v] = number of neighbours earlier in the order
    extra: tuple[frozenset[int], ...]      # extra[v] = facets of v off its incoming edges
    face: tuple[Face, ...]      # face[v] = F_v, the face of extra[v]


class SimplePolytope:
    """Simple n-polytope given by the facet sets of its vertices."""

    def __init__(self, dim: int, facet_count: int, vertex_facets: Sequence[Sequence[int]]):
        self.dim = int(dim)
        self.facet_count = int(facet_count)
        self.vertices = tuple(frozenset(map(int, fs)) for fs in vertex_facets)
        self._ridges = None
        self._edges = None
        self._adjacency = None
        self._links = None
        self._nonfaces = None
        self._masks = None     # facet -> bit mask of the vertices on it

    @property
    def m(self) -> int:
        return len(self.vertices)

    def _ridge_map(self):
        """{(n-1)-subset of a vertex's facets, sorted: the vertices holding it,
        in vertex order}."""
        if self._ridges is None:
            ridges = {}
            for v, fs in enumerate(self.vertices):
                for sub in combinations(sorted(fs), self.dim - 1):
                    ridges.setdefault(sub, []).append(v)
            self._ridges = ridges
        return self._ridges

    def edges(self):
        """All edges: (v, w, shared facet set) with v < w sharing n-1 facets,
        the vertex pairs of each ridge, in (v, w) order."""
        if self._edges is None:
            out = [(v, w, frozenset(sub)) for sub, vs in self._ridge_map().items()
                   for v, w in combinations(vs, 2)]
            self._edges = tuple(sorted(out, key=lambda e: e[:2]))
        return self._edges

    def adjacency(self):
        if self._adjacency is None:
            adj = [set() for _ in range(self.m)]
            for v, w, _ in self.edges():
                adj[v].add(w)
                adj[w].add(v)
            self._adjacency = tuple(frozenset(a) for a in adj)
        return self._adjacency

    def face_of(self, facet_set) -> Face:
        """The face cut out by facet_set, with the facet set saturated: its
        vertices are the bits of the AND of the facets' vertex masks."""
        S = frozenset(facet_set)
        if self._masks is None:
            masks = {}
            bit = 1
            for fs in self.vertices:
                for i in fs:
                    masks[i] = masks.get(i, 0) | bit
                bit <<= 1
            self._masks = masks
        masks = self._masks
        face = (1 << self.m) - 1
        for i in S:
            face &= masks.get(i, 0)
        if not face:
            raise NotAFace(f"facets {fmt_facets(S)} have empty intersection")
        verts = []
        rest = face
        while rest:
            low = rest & -rest
            verts.append(low.bit_length() - 1)
            rest ^= low
        # the facets through every vertex of the face are among the first one's
        sat = frozenset([i for i in self.vertices[verts[0]] if masks[i] & face == face])
        return Face(sat, tuple(verts))

    def _link_table(self):
        """{facet mask of S: L(S)} over every subset S of a vertex's facet
        set, the empty set included; facet i is bit 1 << i, and L(S) is the
        OR of the masks of the vertices on S, so S | {j} is a face exactly
        when j is in L(S)."""
        if self._links is None:
            links = {}
            for fs in self.vertices:
                vmask = sum(1 << i for i in fs)
                sub = vmask
                while True:
                    links[sub] = links.get(sub, 0) | vmask
                    if not sub:
                        break
                    sub = (sub - 1) & vmask
            self._links = links
        return self._links

    def minimal_nonfaces(self):
        """Inclusion-minimal facet sets with empty intersection.

        A minimal non-face T minus its largest facet j is a face S, so T is
        found once, from S and a facet j above every facet of S.  S | {j} is
        not a face exactly when j is off L(S), and each of its other subsets
        S - {i} | {j} is a face exactly when j is in L(S - {i}), where S - {i}
        is a face too.  So the j that make T minimal are the bits above S,
        off L(S) and in every L(S - {i}): integer ANDs over the table.
        """
        if self._nonfaces is None:
            links = self._link_table()
            facets = (1 << (self.facet_count + 1)) - 2      # bits 1..d
            found = []
            for S, L in links.items():
                js = facets & (-1 << S.bit_length()) & ~L   # above S, off L(S)
                rest = S
                while rest and js:
                    low = rest & -rest
                    js &= links[S ^ low]
                    rest ^= low
                while js:
                    low = js & -js
                    found.append(_facets_of(S | low))
                    js ^= low
            self._nonfaces = tuple(sorted(found, key=sorted))
        return self._nonfaces


def _facets_of(mask: int) -> frozenset:
    """The facets whose bits are set in mask, read bit by set bit as face_of
    reads its vertices."""
    facets = []
    while mask:
        low = mask & -mask
        facets.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(facets)


def validate_simple(P: SimplePolytope) -> ValidationReport:
    """Check the local combinatorial conditions for a simple polytope boundary."""
    n, d = P.dim, P.facet_count
    fails = []
    if n < 1:
        fails.append(f"dimension {n} < 1")
    if d < 1:
        fails.append(f"facet count {d} < 1")
    if P.m < 1:
        fails.append("no vertices")
    if fails:
        return ValidationReport(tuple(fails))

    facets = frozenset(range(1, d + 1))
    for v, fs in enumerate(P.vertices):
        if not fs <= facets:
            fails.append(f"vertex #{v + 1} {fmt_facets(fs)}: facet index out of range 1..{d}")
        if len(fs) != n:
            fails.append(f"vertex #{v + 1} {fmt_facets(fs)}: {len(fs)} facets, expected {n}")
    seen = {}
    for v, fs in enumerate(P.vertices):
        if fs in seen:
            fails.append(f"vertices #{seen[fs] + 1} and #{v + 1} share the facet set {fmt_facets(fs)}")
        seen[fs] = v
    if fails:
        return ValidationReport(tuple(fails))

    fails += [f"facet {i}: not on any vertex"
              for i in sorted(facets - frozenset.union(*P.vertices))]

    # each ridge lies in at most 2 vertices, and each of the n ridges of a
    # vertex is shared with exactly one other vertex: every ridge of the map
    # holds exactly 2, and the failures are listed only when one does not
    ridges = P._ridge_map()
    if any(len(vs) != 2 for vs in ridges.values()):
        for sub, vs in sorted(ridges.items()):
            if len(vs) > 2:
                fails.append(
                    f"facet subset {fmt_facets(sub)}: contained in {len(vs)} vertices (max 2)")
        for fs in P.vertices:
            for sub in combinations(sorted(fs), n - 1):
                if len(ridges[sub]) != 2:
                    fails.append(
                        f"vertex {fmt_facets(fs)}: subset {fmt_facets(sub)} shared with "
                        f"{len(ridges[sub]) - 1} other vertices (expected 1)")
    if fails:
        return ValidationReport(tuple(fails))

    # connectivity of the edge graph
    reached = {0}
    frontier = [0]
    adj = P.adjacency()
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    if len(reached) != P.m:
        missing = min(set(range(P.m)) - reached)
        fails.append(f"edge graph disconnected: vertex #{missing + 1} unreachable from #1")
    return ValidationReport(tuple(fails))


def vertex_dual_basis(lam: Sequence[Sequence[int]], facets) -> dict:
    """{i: mu_i} over the facets i at a vertex, with <mu_i, lambda_j> = delta_ij.

    Raises NotUnimodular when the block of their lambda rows is not.
    """
    facets = sorted(facets)
    return dict(zip(facets, dual_basis([lam[i - 1] for i in facets])))


def dual_bases(P: SimplePolytope, lam: Sequence[Sequence[int]]):
    """(mu, bad): mu[v] = vertex_dual_basis(lam, P.vertices[v]), or None where
    v fails, and bad = {v: why v fails}.

    Vertices are taken in index order; one not reached yet is a root, whose
    basis comes from elimination, and the edge graph is walked from it.
    Across an edge v -- w with shared facets S, i the facet of v off S and
    j that of w, w's block is v's with row lambda_i replaced by lambda_j.
    In the basis of v's rows lambda_j has coefficient c = <mu_i(v), lambda_j>
    at lambda_i, and the rows at S are shared, so by multilinearity w's
    determinant is +-c times v's, which is +-1.  If |c| = 1 the exchange
    mu_j(w) = c mu_i(v), mu_k(w) = mu_k(v) - <mu_k(v), lambda_j> mu_j(w)
    for k in S gives w's basis in O(n^2); otherwise w fails with |det| = |c|,
    the elimination's determinant, and the walk goes on only through
    vertices that have a basis, so one cut off by failing vertices becomes
    a root of its own.

    A vertex must list n facets in 1..d (validate_simple checks it); one
    that does not fails with that reason and is neither a root nor walked.
    """
    n, d = P.dim, P.facet_count
    verts = P.vertices
    mu = [None] * P.m
    bad = {}
    facets = frozenset(range(1, d + 1))
    for v, fs in enumerate(verts):
        if len(fs) != n:
            bad[v] = f"{len(fs)} facets, expected {n}"
        elif not fs <= facets:
            bad[v] = f"facet index out of range 1..{d}"
    adj = P.adjacency()
    for root in range(P.m):
        if mu[root] is not None or root in bad:
            continue
        try:
            mu[root] = vertex_dual_basis(lam, verts[root])
        except NotUnimodular as exc:
            bad[root] = f"|det| = {abs(exc.det)} (expected 1)"
            continue
        stack = [root]
        while stack:
            v = stack.pop()
            fv, mv = verts[v], mu[v]
            for w in adj[v]:
                if mu[w] is not None or w in bad:
                    continue
                fw = verts[w]
                if fw == fv:        # a repeated facet set: the same block
                    mu[w] = mv
                    continue
                (i,) = fv - fw
                (j,) = fw - fv
                lj = lam[j - 1]
                c = sum(map(mul, mv[i], lj))
                if c != 1 and c != -1:
                    bad[w] = f"|det| = {abs(c)} (expected 1)"
                    continue
                mj = mv[i] if c == 1 else tuple([-x for x in mv[i]])
                new = {}
                for k in sorted(fw):
                    if k == j:
                        new[k] = mj
                        continue
                    a = mv[k]
                    t = sum(map(mul, a, lj))
                    new[k] = tuple([x - t * y for x, y in zip(a, mj)]) if t else a
                mu[w] = new
                stack.append(w)
    return mu, bad


def validate_characteristic(P: SimplePolytope,
                            lam: Sequence[Sequence[int]]) -> CharacteristicReport:
    """Primitivity of every row and |det| = 1 at every vertex.

    The dual bases are the unimodularity check (see dual_bases); each
    failing vertex is listed, in vertex order, with its determinant.
    """
    n, d = P.dim, P.facet_count
    fails = []
    if len(lam) != d:
        fails.append(f"characteristic matrix has {len(lam)} rows, expected {d}")
        return CharacteristicReport(tuple(fails))
    for i, row in enumerate(lam):
        if len(row) != n:
            fails.append(f"row {i + 1}: length {len(row)}, expected {n}")
    if fails:
        return CharacteristicReport(tuple(fails))
    for i, row in enumerate(lam):
        if not is_primitive(row):
            fails.append(f"row {i + 1} {tuple(row)}: not primitive")
    mu, bad = dual_bases(P, lam)
    fails += [f"vertex {fmt_facets(P.vertices[v])}: {bad[v]}" for v in sorted(bad)]
    if fails:
        return CharacteristicReport(tuple(fails))
    return CharacteristicReport((), tuple(mu))


def _order_data(P: SimplePolytope, order):
    position = [0] * P.m
    for pos, v in enumerate(order):
        position[v] = pos
    adj = P.adjacency()
    incoming = [[w for w in adj[v] if position[w] < position[v]] for v in range(P.m)]
    ind = tuple(len(inc) for inc in incoming)
    extra = tuple(frozenset().union(*(P.vertices[v] - P.vertices[w] for w in inc))
                  for v, inc in enumerate(incoming))
    return VertexOrder(tuple(order), tuple(position), ind, extra, tuple(map(P.face_of, extra)))


def validate_order(P: SimplePolytope, order: Sequence[int]) -> VertexOrder:
    """Accept an explicit vertex order.

    Every face must have a unique locally minimal vertex (no earlier
    neighbour inside the face) and the whole orientation must have a unique
    source and a unique sink.  This is the combinatorial shadow of a generic
    height function; orders that pass it are usable downstream, which is
    checked again by the interpolation residuals.  The face checked for v
    is kept as face[v], and the checks downstream that v comes first there
    or that |extra[v]| = ind[v] (a ridge holds 2 vertices) cannot fail.

    A vertex w is locally minimal in a face F exactly when F lies in every
    facet of extra[w], the facets of w off its incoming edges.  So v is
    locally minimal in the face cut out by extra[v], and it is enough to
    check that v is the earliest vertex there.  If a face F has two local
    minima, let w be one that is not the earliest: the face of extra[w]
    contains F and fails too, and it is F itself when F is the first
    failing face in (size, facets) order, the face reported.

    Only the sinks are counted after that: a source v has extra[v] empty,
    so its face is the whole polytope, whose earliest vertex order[0] is
    always a source, and every other source has already failed there.
    """
    order = [int(v) for v in order]
    if sorted(order) != list(range(P.m)):
        raise InvalidOrder(f"not a permutation of 0..{P.m - 1}: {order}")
    vo = _order_data(P, order)
    failing = [face for v, face in enumerate(vo.face)
               if min(face.vertices, key=vo.position.__getitem__) != v]
    if failing:
        face = min(failing, key=lambda f: (len(f.facets), sorted(f.facets)))
        minima = [w for w in face.vertices if vo.extra[w] <= face.facets]
        raise InvalidOrder(
            f"{face.label()} has {len(minima)} locally minimal vertices "
            f"({', '.join(fmt_facets(P.vertices[w]) for w in minima)})",
            witness=face)
    sinks = [v for v in range(P.m) if vo.ind[v] == P.dim]
    if len(sinks) != 1:
        raise InvalidOrder(f"orientation has {len(sinks)} sinks (expected 1)")
    return vo


def vertex_order_from_heights(P: SimplePolytope,
                              coords: Sequence[Sequence[Fraction]],
                              w: Sequence[Fraction]) -> VertexOrder:
    """Order vertices by the height <coords(v), w>; ties on an edge are rejected.

    Every coordinate is scaled by L, the common denominator of the
    coordinates, and w by its own, so each height is a sum of int products;
    scaling by a positive number keeps order and ties, and a tie is
    reported at its unscaled value.
    """
    if len(coords) != P.m:
        raise ValueError(f"{len(coords)} coordinate rows for {P.m} vertices")
    if any(len(row) != len(w) for row in coords):
        raise ValueError("coordinate/height-vector length mismatch")
    L = lcm(*{x.denominator for row in coords for x in row})
    Lw = lcm(*{x.denominator for x in w})
    rows = coords if L == 1 else [[x.numerator * (L // x.denominator) for x in row]
                                  for row in coords]
    ws = w if Lw == 1 else [x.numerator * (Lw // x.denominator) for x in w]
    heights = [sum(map(mul, row, ws)) for row in rows]
    for v, x, _ in P.edges():
        if heights[v] == heights[x]:
            raise NonGenericHeight(
                f"height ties on the edge {fmt_facets(P.vertices[v])} -- "
                f"{fmt_facets(P.vertices[x])} (value {Fraction(heights[v], L * Lw)})")
    order = sorted(range(P.m), key=lambda v: (heights[v], v))
    return validate_order(P, order)
