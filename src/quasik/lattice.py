"""Exact integer linear algebra over character and cocharacter lattices.

Entries are Python ints, so every operation is exact regardless of entry
size.  A dense matrix is a sequence of int rows; SparseMat holds one
{column: value} dict per row, for the large and mostly empty relation
matrices whose invariant factors snf_diagonal finds.  Vectors (characters
and cocharacters, i.e. rows of a characteristic matrix) are plain int
tuples.  Each elimination runs once: dual_basis triangularises a block
and reads its determinant off the same diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Hashable, Iterable, Sequence

Vector = tuple[int, ...]


class NotPrimitive(ValueError):
    """Vector whose coordinates share a common factor > 1."""


class NotUnimodular(ValueError):
    """Square integer matrix with |det| != 1 where a lattice basis was required."""

    def __init__(self, message, det=None):
        super().__init__(message)
        self.det = det


def vec_gcd(v: Iterable[int]) -> int:
    return gcd(*v)


def is_primitive(v: Iterable[int]) -> bool:
    return vec_gcd(v) == 1


def normalize_sign(v: Vector) -> Vector:
    """Flip the sign so the first nonzero coordinate is positive."""
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


def dot(u: Vector, v: Vector) -> int:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _clear(M: list[list[int]], i: int, j: int, k: int) -> None:
    """Combine rows i and j of M unimodularly so that M[j][k] becomes 0 and
    M[i][k] becomes +-gcd(M[i][k], M[j][k])."""
    a, b = M[i][k], M[j][k]
    if a and b % a == 0:
        q = b // a
        M[j] = [y - q * x for x, y in zip(M[i], M[j])]
    else:
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        Mi, Mj = M[i], M[j]
        M[i] = [x * s + y * t for s, t in zip(Mi, Mj)]
        M[j] = [p * t - q * s for s, t in zip(Mi, Mj)]


def snf(rows: Sequence[Sequence[int]], cols: int) -> Vector:
    """Smith normal form diagonal of the matrix with these rows and cols
    columns, padded with zeros to min(rows, cols).

    Unimodular row operations, on a copy of the rows and on its transpose,
    diagonalize it; the nonzero diagonal entries are then made positive
    and brought into a divisibility chain.
    """
    M = [list(row) for row in rows]
    r, c = len(M), cols
    t = 0
    limit = min(r, c)
    while t < limit:
        # pivot: smallest nonzero entry of the remaining submatrix
        best = None
        best_abs = 0
        for i in range(t, r):
            row = M[i]
            for j in range(t, c):
                v = row[j]
                if v != 0 and (best is None or abs(v) < best_abs):
                    best = (i, j)
                    best_abs = abs(v)
        if best is None:
            break
        M[t], M[best[0]] = M[best[0]], M[t]
        j = best[1]
        if j != t:
            for row in M:
                row[t], row[j] = row[j], row[t]
        # clear column t; row t is column t of the transpose, whose Smith
        # form is the same, so clear it there.  A gcd-combine on one can
        # re-dirty the other, so alternate until both are clear
        while True:
            for i in range(t + 1, r):
                if M[i][t]:
                    _clear(M, t, i, t)
            if not any(M[t][t + 1:]):
                break
            M = [list(col) for col in zip(*M)]
            r, c = c, r
        M[t][t] = abs(M[t][t])
        t += 1

    # enforce the divisibility chain: diag(a, b) ~ diag(gcd, lcm)
    done = False
    while not done:
        done = True
        for i in range(t - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if b % a != 0:
                done = False
                g = gcd(a, b)
                M[i][i], M[i + 1][i + 1] = g, a // g * b
    return tuple(M[i][i] for i in range(t)) + (0,) * (limit - t)


def _eliminate_unit_pivots(rows: dict[int, dict[Hashable, int]]) -> int:
    """Eliminate +-1 pivots from a sparse matrix in place; return their number.

    rows maps a row index to its nonzero entries {column: value}.  A sweep
    visits the rows shortest first; in each row that still holds a unit
    entry it pivots on the unit whose column has the fewest entries: it
    clears that column with row operations and drops the row and column.
    A pivot can leave a unit in a row the sweep has passed, so sweeps
    repeat until one pivots nothing; then no remaining row holds +-1, and
    rows emptied on the way are dropped.  A unit pivot splits off exactly:
    SNF(A) = 1 (+) SNF(Schur complement), so the rows left behind carry
    every other invariant factor.
    """
    cols: dict[Hashable, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots = 0
    swept = None
    while swept != pivots:
        swept = pivots
        for i in sorted(rows, key=lambda i: len(rows[i])):
            prow = rows.get(i)
            if prow is None:
                continue
            j = None
            for k, v in prow.items():
                if (v == 1 or v == -1) and (j is None or len(cols[k]) < len(cols[j])):
                    j = k
            if j is None:
                continue
            del rows[i]
            for k in prow:
                cols[k].discard(i)
            p = prow[j]
            for r in cols.pop(j):
                row = rows[r]
                f = row[j] * p           # row[j] / p, since p = +-1
                for k, v in prow.items():
                    nv = row.get(k, 0) - f * v
                    if nv:
                        if k not in row:
                            cols[k].add(r)
                        row[k] = nv
                    elif k in row:
                        del row[k]
                        if k != j:
                            cols[k].discard(r)
                if not row:
                    del rows[r]
            pivots += 1
    return pivots


@dataclass(frozen=True)
class SparseMat:
    """Integer matrix as one {column: value} dict of nonzero entries per row.

    Column keys are any hashables; cols counts every column, the empty
    ones included.
    """

    cols: int
    data: tuple[dict[Hashable, int], ...]

    @property
    def rows(self) -> int:
        return len(self.data)


def snf_diagonal(A: SparseMat) -> Vector:
    """Invariant factors of A, equal to snf of its dense form.

    Unit pivots are eliminated sparsely on a copy of each row, so A is
    left as it was; snf runs only on the block they leave, and the result
    is padded with zeros to min(rows, cols).
    """
    rows = {i: dict(r) for i, r in enumerate(A.data) if r}
    ones = _eliminate_unit_pivots(rows)
    left = dict.fromkeys(j for row in rows.values() for j in row)
    where = {j: k for k, j in enumerate(left)}
    M = []
    for row in rows.values():
        dense = [0] * len(where)
        for j, v in row.items():
            dense[where[j]] = v
        M.append(dense)
    diag = (1,) * ones + snf(M, len(where))
    return diag + (0,) * (min(A.rows, A.cols) - len(diag))


def dual_basis(rows: Sequence[Sequence[int]]) -> list[Vector]:
    """Rows mu_1..mu_n with <mu_k, row_l> = delta_{k,l}; the square matrix
    of the rows must be unimodular.

    Row-reduces [V | I] to [I | V^-1] with 2x2 row combines of determinant
    1; mu_k is column k of V^-1.  The triangular form they reach has det V
    as the product of its diagonal, so a block that is not unimodular
    raises NotUnimodular carrying that determinant.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotUnimodular("matrix is not square")
    M = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    det = 1
    for k in range(n):
        for i in range(k + 1, n):
            if M[i][k]:
                _clear(M, k, i, k)
        det *= M[k][k]
        if M[k][k] == -1:
            M[k] = [-x for x in M[k]]
    if det not in (1, -1):
        raise NotUnimodular(f"|det| = {abs(det)} != 1", det)
    for k in range(n - 1, 0, -1):
        for i in range(k):
            q = M[i][k]
            if q:
                M[i] = [s - q * t for s, t in zip(M[i], M[k])]
    return [tuple(M[i][n + k] for i in range(n)) for k in range(n)]
