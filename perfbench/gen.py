"""Seeded generators of quasitoric manifolds for the benchmark.

A Manifold is a simple polytope given by the facet sets of its vertices, a
characteristic matrix, the coordinates of a convex realization and a
generic height vector.  Nothing here imports quasik: check() verifies every
document from first principles, so a generator bug cannot pass for a
library failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import gcd


@dataclass(frozen=True)
class Manifold:
    name: str
    dim: int
    vertices: tuple[frozenset, ...]          # 1-based facet sets
    lam: tuple[tuple[int, ...], ...]         # one row per facet
    coords: tuple[tuple[Fraction, ...], ...]
    height: tuple[int, ...] = ()

    @property
    def facets(self) -> int:
        return len(self.lam)

    @property
    def m(self) -> int:
        return len(self.vertices)

    def edges(self):
        """Vertex pairs sharing dim - 1 facets."""
        return [(v, w) for v, w in combinations(range(self.m), 2)
                if len(self.vertices[v] & self.vertices[w]) == self.dim - 1]

    def document(self) -> dict:
        """The JSON input document the library reads."""
        return {
            "name": self.name,
            "dim": self.dim,
            "facets": self.facets,
            "vertices": [sorted(fs) for fs in self.vertices],
            "lambda": [list(r) for r in self.lam],
            "vertex_coords": [[_json_rational(x) for x in row] for row in self.coords],
            "height_vector": list(self.height),
        }


def _json_rational(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- exact linear algebra over Fraction --------------------------------------

def det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return out


def inverse(rows) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of a nonsingular square matrix."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[p] = a[p], a[k]
        piv = a[k][k]
        a[k] = [x / piv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [r[n:] for r in a]


def _matmul_rows(lam, W):
    return tuple(tuple(sum(r[k] * W[k][j] for k in range(len(W))) for j in range(len(W[0])))
                 for r in lam)


# -- families ----------------------------------------------------------------

def cp(n: int) -> Manifold:
    """CP^n over the n-simplex: facet i is x_i = 0, facet n+1 is sum x = 1."""
    lam = tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) + ((-1,) * n,)
    origin = (Fraction(0),) * n
    verts = [frozenset(range(1, n + 1))]
    coords = [origin]
    for k in range(1, n + 1):
        verts.append(frozenset(range(1, n + 2)) - {k})
        coords.append(tuple(Fraction(int(j == k - 1)) for j in range(n)))
    return Manifold(f"cp{n}", n, tuple(verts), lam, tuple(coords))


def bott(n: int, rng: random.Random, bound: int = 1) -> Manifold:
    """Bott tower over the n-cube with a random upper-unitriangular twist.

    Facet i is x_i = 0 with lambda e_i; facet n+i is x_i = 1 with lambda
    -e_i + sum_{j>i} c_ij e_j.  Every vertex matrix is triangular with
    diagonal +-1, hence unimodular.
    """
    lam = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for i in range(n):
        lam.append(tuple(-1 if j == i else (rng.randint(-bound, bound) if j > i else 0)
                         for j in range(n)))
    verts, coords = [], []
    for x in iproduct((0, 1), repeat=n):
        verts.append(frozenset(i + 1 + n * x[i] for i in range(n)))
        coords.append(tuple(Fraction(c) for c in x))
    return Manifold(f"bott{n}", n, tuple(verts), tuple(lam), tuple(coords))


def cube(n: int) -> Manifold:
    """The product of n copies of CP^1: a Bott tower without twist."""
    return replace(bott(n, random.Random(0), bound=0), name=f"cube{n}")


def polygon(k: int, rng: random.Random) -> Manifold:
    """Smooth k-gon: a Hirzebruch square cut down by k - 4 random corner blow-ups.

    The new edge at a cut vertex gets the sum of the two old lambda rows.
    """
    if k < 4:
        raise ValueError("polygon needs at least 4 edges")
    a = rng.randint(-2, 2)
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
           (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
    # edge j joins pts[j] and pts[j+1]; vertex j sits between edges j-1 and j
    edge_facet = [1, 2, 3, 4]
    lam = [(0, 1), (-1, a), (0, -1), (1, 0)]
    third = Fraction(1, 3)
    while len(edge_facet) < k:
        j = rng.randrange(len(pts))
        p, q, r = pts[j], pts[j - 1], pts[(j + 1) % len(pts)]
        before = (p[0] + third * (q[0] - p[0]), p[1] + third * (q[1] - p[1]))
        after = (p[0] + third * (r[0] - p[0]), p[1] + third * (r[1] - p[1]))
        f_in, f_out = edge_facet[j - 1], edge_facet[j]
        lam.append(tuple(x + y for x, y in zip(lam[f_in - 1], lam[f_out - 1])))
        pts[j:j + 1] = [before, after]
        edge_facet.insert(j, len(lam))
    verts = tuple(frozenset((edge_facet[j - 1], edge_facet[j])) for j in range(len(pts)))
    return Manifold(f"polygon{k}", 2, verts, tuple(lam), tuple(pts))


def truncate(M: Manifold, v: int) -> Manifold:
    """Cut vertex v off (an equivariant blow-up at a fixed point).

    The new facet's lambda row is the sum of the rows of v's facets.  The
    cutting hyperplane passes through v + t (w - v) for every neighbour w,
    with t half the smallest cone-coordinate sum of any other vertex, so
    only v is cut off.
    """
    n = M.dim
    fv = M.vertices[v]
    nbrs = {}
    for w in range(M.m):
        shared = fv & M.vertices[w]
        if w != v and len(shared) == n - 1:
            nbrs[next(iter(fv - shared))] = w
    order = sorted(nbrs)
    p = M.coords[v]
    dirs = [[M.coords[nbrs[f]][i] - p[i] for i in range(n)] for f in order]
    # cone coordinates s with x = p + sum s_k dirs_k, i.e. s = (x - p) D^-1
    Dinv = inverse(dirs)
    sums = []
    for w in range(M.m):
        if w != v:
            x = [M.coords[w][i] - p[i] for i in range(n)]
            s = [sum(x[i] * Dinv[i][k] for i in range(n)) for k in range(n)]
            sums.append(sum(s))
    t = min(min(sums) / 2, Fraction(1, 2))
    new = M.facets + 1
    verts = list(M.vertices[:v] + M.vertices[v + 1:])
    coords = list(M.coords[:v] + M.coords[v + 1:])
    for f, d in zip(order, dirs):
        verts.append((fv - {f}) | {new})
        coords.append(tuple(p[i] + t * d[i] for i in range(n)))
    row = tuple(sum(M.lam[f - 1][j] for f in fv) for j in range(n))
    return Manifold(f"{M.name}-t", n, tuple(verts), M.lam + (row,), tuple(coords))


def product(A: Manifold, B: Manifold) -> Manifold:
    """Product manifold over the product polytope, block-diagonal lambda."""
    n = A.dim + B.dim
    lam = tuple(r + (0,) * B.dim for r in A.lam) + tuple((0,) * A.dim + r for r in B.lam)
    verts, coords = [], []
    for v in range(A.m):
        for w in range(B.m):
            verts.append(A.vertices[v] | frozenset(f + A.facets for f in B.vertices[w]))
            coords.append(A.coords[v] + B.coords[w])
    return Manifold(f"{A.name}x{B.name}", n, tuple(verts), lam, tuple(coords))


# -- randomisation ---------------------------------------------------------

def relabel(M: Manifold, rng: random.Random) -> Manifold:
    """Change the torus basis by a random unimodular W: lambda -> lambda W.

    The manifold is the same; its characters are not, so repeated families
    give distinct inputs.
    """
    n = M.dim
    W = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            W[i] = [a + s * b for a, b in zip(W[i], W[j])]
    return replace(M, lam=_matmul_rows(M.lam, W))


HEIGHT_BOUND = 60      # height vectors have entries in [1, HEIGHT_BOUND]


def with_height(M: Manifold, rng: random.Random) -> Manifold:
    """Attach a random integer height vector that is generic on every edge."""
    edges = M.edges()
    while True:
        w = tuple(rng.randint(1, HEIGHT_BOUND) for _ in range(M.dim))
        h = heights(M, w)
        if all(h[a] != h[b] for a, b in edges):
            return replace(M, height=w)


def heights(M: Manifold, w=None):
    w = M.height if w is None else w
    return [sum(c * x for c, x in zip(row, w)) for row in M.coords]


# -- self-check -----------------------------------------------------------

class GeneratorError(AssertionError):
    """A generated document is not a valid quasitoric manifold."""


def check(M: Manifold) -> None:
    """Raise GeneratorError unless M is simple, unimodular and generically ordered."""
    n, d = M.dim, M.facets

    def need(cond, msg):
        if not cond:
            raise GeneratorError(f"{M.name}: {msg}")

    need(len(set(M.vertices)) == M.m, "repeated vertex")
    need(len(M.coords) == M.m and all(len(c) == n for c in M.coords), "coordinate shape")
    need(len(M.height) == n, "height vector length")
    for fs in M.vertices:
        need(len(fs) == n and all(1 <= f <= d for f in fs), f"vertex {sorted(fs)}")
    for row in M.lam:
        g = 0
        for x in row:
            g = gcd(g, x)
        need(len(row) == n and g == 1, f"lambda row {row} not primitive")
    for fs in M.vertices:
        D = det([M.lam[f - 1] for f in sorted(fs)])
        need(abs(D) == 1, f"|det| = {abs(D)} at vertex {sorted(fs)}")
    degree = [0] * M.m
    edges = M.edges()
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    need(all(k == n for k in degree), "a vertex without exactly dim edges")
    h = heights(M)
    need(all(h[a] != h[b] for a, b in edges), "height ties on an edge")
