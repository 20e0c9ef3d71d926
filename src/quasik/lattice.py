"""Exact integer linear algebra over character and cocharacter lattices.

Matrices are dense, immutable, row-major tuples of Python ints, so every
operation is exact regardless of entry size.  Vectors (characters and
cocharacters, i.e. rows of a characteristic matrix) are plain int tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

Vector = tuple[int, ...]


class RankError(ValueError):
    """Matrix rank is too low for the requested operation."""


class NotPrimitive(ValueError):
    """Vector whose coordinates share a common factor > 1."""


class NotUnimodular(ValueError):
    """Square integer matrix with |det| != 1 where a lattice basis was required."""


def vec_gcd(v: Iterable[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


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


@dataclass(frozen=True)
class IntMat:
    """Immutable dense integer matrix."""

    rows: int
    cols: int
    data: tuple[Vector, ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMat":
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if rows:
            c = len(rows[0])
            if any(len(r) != c for r in rows):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("cols required for a matrix with no rows")
            c = cols
        if cols is not None and cols != c:
            raise ValueError("cols disagrees with row length")
        return IntMat(len(rows), c, rows)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMat":
        cols = [tuple(int(x) for x in c) for c in cols]
        if cols:
            r = len(cols[0])
            if any(len(c) != r for c in cols):
                raise ValueError("ragged columns")
        else:
            if rows is None:
                raise ValueError("rows required for a matrix with no columns")
            r = rows
        data = tuple(tuple(c[i] for c in cols) for i in range(r))
        return IntMat(r, len(cols), data)

    @staticmethod
    def identity(n: int) -> "IntMat":
        return IntMat(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(r: int, c: int) -> "IntMat":
        return IntMat(r, c, tuple((0,) * c for _ in range(r)))

    def row(self, i: int) -> Vector:
        return self.data[i]

    def col(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    @property
    def T(self) -> "IntMat":
        return IntMat(self.cols, self.rows,
                      tuple(tuple(self.data[i][j] for i in range(self.rows))
                            for j in range(self.cols)))

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        data = tuple(
            tuple(sum(self.data[i][k] * other.data[k][j] for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows))
        return IntMat(self.rows, other.cols, data)

    def matvec(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self.data)

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.data) + "]"


def block_diag(*mats: IntMat) -> IntMat:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    data = [[0] * cols for _ in range(rows)]
    ro = co = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                data[ro + i][co + j] = m.data[i][j]
        ro += m.rows
        co += m.cols
    return IntMat(rows, cols, tuple(tuple(r) for r in data))


@dataclass(frozen=True)
class SnfDecomposition:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    U: IntMat
    D: IntMat
    V: IntMat

    def diagonal(self) -> Vector:
        k = min(self.D.rows, self.D.cols)
        return tuple(self.D.data[i][i] for i in range(k))


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


def _snf_work(M: list[list[int]], r: int, c: int, track: bool):
    """Diagonalize M in place; return (pivot_count, U, V) (U, V None if untracked)."""
    U = [[int(i == j) for j in range(r)] for i in range(r)] if track else None
    V = [[int(i == j) for j in range(c)] for i in range(c)] if track else None

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        if track:
            U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        if track:
            for row in V:
                row[i], row[j] = row[j], row[i]

    def row_addmul(i, j, q):
        Mi, Mj = M[i], M[j]
        for k in range(c):
            Mi[k] += q * Mj[k]
        if track:
            Ui, Uj = U[i], U[j]
            for k in range(r):
                Ui[k] += q * Uj[k]

    def col_addmul(i, j, q):
        for row in M:
            row[i] += q * row[j]
        if track:
            for row in V:
                row[i] += q * row[j]

    def row_combine(i, j, a11, a12, a21, a22):
        Mi, Mj = M[i], M[j]
        for k in range(c):
            x, y = Mi[k], Mj[k]
            Mi[k] = a11 * x + a12 * y
            Mj[k] = a21 * x + a22 * y
        if track:
            Ui, Uj = U[i], U[j]
            for k in range(r):
                x, y = Ui[k], Uj[k]
                Ui[k] = a11 * x + a12 * y
                Uj[k] = a21 * x + a22 * y

    def col_combine(i, j, a11, a12, a21, a22):
        for row in M:
            x, y = row[i], row[j]
            row[i] = a11 * x + a12 * y
            row[j] = a21 * x + a22 * y
        if track:
            for row in V:
                x, y = row[i], row[j]
                row[i] = a11 * x + a12 * y
                row[j] = a21 * x + a22 * y

    def row_negate(i):
        M[i] = [-x for x in M[i]]
        if track:
            U[i] = [-x for x in U[i]]

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
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        # clear row and column t; gcd-combines can re-dirty them, so loop
        while True:
            for i in range(t + 1, r):
                b = M[i][t]
                if b:
                    a = M[t][t]
                    if b % a == 0:
                        row_addmul(i, t, -(b // a))
                    else:
                        g, x, y = _xgcd(a, b)
                        row_combine(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, c):
                b = M[t][j]
                if b:
                    a = M[t][t]
                    if b % a == 0:
                        col_addmul(j, t, -(b // a))
                    else:
                        g, x, y = _xgcd(a, b)
                        col_combine(t, j, x, y, -(b // g), a // g)
            if all(M[i][t] == 0 for i in range(t + 1, r)) and \
               all(M[t][j] == 0 for j in range(t + 1, c)):
                break
        t += 1

    for i in range(t):
        if M[i][i] < 0:
            row_negate(i)

    # enforce the divisibility chain with local 2x2 transforms
    while True:
        done = True
        for i in range(t - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if b % a != 0:
                done = False
                col_addmul(i, i + 1, 1)
                g, x, y = _xgcd(a, b)
                row_combine(i, i + 1, x, y, -(b // g), a // g)
                col_addmul(i + 1, i, -(y * b // g))
        if done:
            break

    return t, U, V


def snf(A: IntMat) -> SnfDecomposition:
    """Smith normal form with unimodular transforms: U @ A @ V == D."""
    M = [list(r) for r in A.data]
    _, U, V = _snf_work(M, A.rows, A.cols, track=True)
    return SnfDecomposition(
        U=IntMat(A.rows, A.rows, tuple(tuple(r) for r in U)),
        D=IntMat(A.rows, A.cols, tuple(tuple(r) for r in M)),
        V=IntMat(A.cols, A.cols, tuple(tuple(r) for r in V)),
    )


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]]) -> int:
    """Eliminate +-1 pivots from a sparse matrix in place; return their number.

    rows maps a row index to its nonzero entries {column: value}.  Each step
    takes the unit entry of lowest Markowitz cost (row nnz - 1) * (col nnz - 1),
    clears its column with row operations and drops its row and column.  A
    unit pivot splits off exactly: SNF(A) = 1 (+) SNF(Schur complement), so
    the rows left behind carry every other invariant factor.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots = 0
    while True:
        best = None
        best_cost = -1
        for i, row in rows.items():
            rn = len(row) - 1
            for j, v in row.items():
                if v == 1 or v == -1:
                    cost = rn * (len(cols[j]) - 1)
                    if best is None or cost < best_cost:
                        best, best_cost = (i, j), cost
                        if cost == 0:
                            break
            if best_cost == 0:
                break
        if best is None:
            return pivots
        i, j = best
        prow = rows.pop(i)
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


def snf_diagonal(A: IntMat) -> Vector:
    """Invariant factors only, equal to snf(A).diagonal().

    Unit pivots are eliminated sparsely first; the dense Smith form runs
    only on the block they leave, and the result is padded with zeros to
    min(rows, cols).
    """
    rows = {}
    for i, r in enumerate(A.data):
        row = {j: v for j, v in enumerate(r) if v}
        if row:
            rows[i] = row
    ones = _eliminate_unit_pivots(rows)
    left = sorted({j for row in rows.values() for j in row})
    where = {j: k for k, j in enumerate(left)}
    M = []
    for row in rows.values():
        dense = [0] * len(left)
        for j, v in row.items():
            dense[where[j]] = v
        M.append(dense)
    t, _, _ = _snf_work(M, len(M), len(left), track=False)
    diag = (1,) * ones + tuple(M[i][i] for i in range(t))
    return diag + (0,) * (min(A.rows, A.cols) - len(diag))


def right_kernel_basis(A: IntMat) -> list[Vector]:
    """Basis of {x : A @ x == 0}; spans a saturated sublattice of Z^cols."""
    s = snf(A)
    r = sum(1 for d in s.diagonal() if d != 0)
    return [s.V.col(j) for j in range(r, A.cols)]


def primitive_kernel_vector(B: IntMat) -> Vector:
    """The primitive row u with u @ B == 0 for B of shape n x (n-1), rank n-1.

    The sign is normalized so the first nonzero coordinate is positive.
    """
    if B.cols != B.rows - 1:
        raise ValueError(f"expected an n x (n-1) matrix, got {B.rows}x{B.cols}")
    ker = right_kernel_basis(B.T)
    if len(ker) != 1:
        raise RankError(f"rank {B.rows - 1 - (len(ker) - 1)} < {B.rows - 1}")
    u = normalize_sign(ker[0])
    if vec_gcd(u) != 1:  # columns of a unimodular matrix are primitive
        raise AssertionError("kernel vector not primitive")
    return u


def inverse_unimodular(A: IntMat) -> IntMat:
    """Exact inverse of a unimodular integer matrix."""
    if A.rows != A.cols:
        raise NotUnimodular("matrix is not square")
    s = snf(A)
    if s.diagonal() != (1,) * A.rows:
        raise NotUnimodular(f"|det| = {abs(A.det())} != 1")
    # U A V = I  =>  A^{-1} = V U
    return s.V @ s.U


def complete_to_unimodular(u: Vector) -> IntMat:
    """A unimodular n x n matrix whose first row is the primitive vector u."""
    u = tuple(int(x) for x in u)
    if not u:
        raise ValueError("empty vector")
    if vec_gcd(u) != 1:
        raise NotPrimitive(f"gcd of {u} is {vec_gcd(u)}")
    s = snf(IntMat(1, len(u), (u,)))
    C = inverse_unimodular(s.V)
    # first row of V^{-1} is +-u; fix the sign
    if C.row(0) != u:
        C = IntMat(C.rows, C.cols, (tuple(-x for x in C.row(0)),) + C.data[1:])
    if C.row(0) != u:
        raise AssertionError("unimodular completion failed")
    return C


def dual_basis(V: IntMat) -> list[Vector]:
    """Rows mu_1..mu_n with <mu_k, row_l(V)> = delta_{k,l}; V must be unimodular."""
    M = inverse_unimodular(V.T)
    return [M.row(k) for k in range(M.rows)]


def quotient_projection(basis: Sequence[Vector], ambient: int) -> IntMat:
    """Projection P: Z^ambient -> Z^q with kernel exactly the saturated span of basis.

    P has full row rank q = ambient - rank(basis) and is surjective onto Z^q.
    """
    basis = [tuple(int(x) for x in b) for b in basis]
    if not basis:
        return IntMat.identity(ambient)
    if any(len(b) != ambient for b in basis):
        raise ValueError("basis vector length != ambient dimension")
    B = IntMat.from_cols(basis, rows=ambient)
    s = snf(B)
    diag = s.diagonal()
    r = sum(1 for d in diag if d != 0)
    if any(d not in (0, 1) for d in diag):
        raise ValueError(f"sublattice is not saturated (invariant factors {diag})")
    return IntMat(ambient - r, ambient, s.U.data[r:])
