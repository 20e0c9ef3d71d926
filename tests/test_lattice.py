from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quasik.lattice import (
    SparseMat,
    _eliminate_unit_pivots,
    NotUnimodular,
    dual_basis,
    snf,
    snf_diagonal,
)

# value pools of the sparse-elimination properties: units only, no units,
# and mixes with zeros
POOLS = [(-1, 1), (-4, -2, 0, 2, 6), (-1, 0, 1), (-3, -1, 0, 0, 1, 2, 5)]


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def sparse(rows, cols):
    """Dense rows as the SparseMat snf_diagonal takes, zero rows kept."""
    return SparseMat(cols, tuple({j: v for j, v in enumerate(r) if v} for r in rows))


def fraction_det(rows):
    """Oracle: exact determinant of a square matrix by elimination over Q."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return int(det)


def determinantal_divisors(rows, cols):
    """Oracle: d_k = gcd of the k x k minors, for k = 1..min(rows, cols)."""
    out = []
    for k in range(1, min(len(rows), cols) + 1):
        d = 0
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(cols), k):
                d = gcd(d, fraction_det([[rows[i][j] for j in cs] for i in rs]))
        out.append(d)
    return out


class TestSnf:
    def test_diag_2_3(self):
        assert snf([[2, 0], [0, 3]], 2) == (1, 6)

    def test_identity(self):
        assert snf(identity(3), 3) == (1, 1, 1)

    def test_zero_1x1(self):
        assert snf([[0]], 1) == (0,)

    def test_empty_shapes(self):
        assert snf([], 3) == ()
        assert snf([[1, 2, 3]], 3) == (1,)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_random_contract(self, r, c, data):
        """The k-th invariant factor is d_k / d_(k-1), or 0 once d_k is 0."""
        rows = data.draw(st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r))
        expected = []
        prev = 1
        for d in determinantal_divisors(rows, c):
            expected.append(d // prev if d else 0)
            prev = d or 1
        assert snf(rows, c) == snf_diagonal(sparse(rows, c)) == tuple(expected)


class TestSnfDiagonal:
    """snf_diagonal eliminates unit pivots sparsely, then runs the dense SNF."""

    @pytest.mark.parametrize("rows, cols, expected", [
        ([[1, -1], [1, 1]], 2, (1, 2)),                      # all units
        ([[2, 4], [6, 8]], 2, (2, 4)),                       # no unit: dense block only
        ([[1, 0, 0], [0, 2, 4], [0, 6, 8]], 3, (1, 2, 4)),   # unit pivot, then a 2x2 block
        ([[1, 2], [3, 4]], 2, (1, 2)),                       # the pivot's Schur complement
        ([[0, 0, 0], [0, 1, 0], [0, 0, 0]], 3, (1, 0, 0)),   # zero rows and columns
        ([[2, 0, 0], [0, 1, 0]], 3, (1, 2)),                 # r < c
        ([[2], [0], [4]], 1, (2,)),                          # r > c
        ([], 3, ()),
    ])
    def test_cases(self, rows, cols, expected):
        assert snf_diagonal(sparse(rows, cols)) == expected == snf(rows, cols)

    def test_unit_pivot_leaves_the_schur_complement(self):
        rows = {0: {0: 1, 1: 2}, 1: {0: 3, 1: 4}, 2: {2: 2}}
        assert _eliminate_unit_pivots(rows) == 1
        assert rows == {1: {1: -2}, 2: {2: 2}}

    def test_unit_made_in_a_row_already_swept(self):
        # row 0 is shorter, so the sweep visits it first, finds no unit and
        # passes on; the pivot in row 1 then leaves row 0 = {1: 1, 2: -10},
        # which only a second sweep eliminates
        rows = {0: {0: 2, 1: 3}, 1: {0: 1, 1: 1, 2: 5}}
        assert _eliminate_unit_pivots(rows) == 2
        assert rows == {}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.sampled_from(POOLS), st.data())
    def test_matches_snf(self, r, c, values, data):
        rows = data.draw(st.lists(st.lists(st.sampled_from(values), min_size=c, max_size=c),
                                  min_size=r, max_size=r))
        S = sparse(rows, c)
        before = [dict(row) for row in S.data]
        assert snf_diagonal(S) == snf(rows, c)
        assert list(S.data) == before   # the rows are left as they were

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.sampled_from(POOLS), st.data())
    def test_pivots_split_off_units(self, r, c, values, data):
        """Afterwards no row holds +-1 or is empty, and the unit pivots
        together with the leftover rows' SNF give the SNF of the input."""
        rows = data.draw(st.lists(st.lists(st.sampled_from(values), min_size=c, max_size=c),
                                  min_size=r, max_size=r))
        left = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(rows)}
        left = {i: row for i, row in left.items() if row}
        pivots = _eliminate_unit_pivots(left)
        for row in left.values():
            assert row and all(v not in (1, -1) for v in row.values())
        cols = sorted({j for row in left.values() for j in row})
        dense = [[row.get(j, 0) for j in cols] for row in left.values()]
        diag = (1,) * pivots + snf(dense, len(cols))
        assert diag + (0,) * (min(r, c) - len(diag)) == snf(rows, c)


class TestDualBasis:
    def test_identity(self):
        mus = dual_basis(identity(3))
        assert mus == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_projective_plane_vertex(self):
        V = [[1, 0], [-1, -1]]
        mus = dual_basis(V)
        assert mus == [(1, -1), (0, -1)]
        for k, mu in enumerate(mus):
            for l in range(2):
                assert sum(a * b for a, b in zip(mu, V[l])) == int(k == l)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            dual_basis([[2, 0], [0, 1]])
        with pytest.raises(NotUnimodular):
            dual_basis([[1, 2], [2, 4]])
        with pytest.raises(NotUnimodular):
            dual_basis([[1, 0]])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_random_unimodular(self, n, data):
        # random unimodular matrix built from row operations on the identity
        rows = [list(r) for r in identity(n)]
        ops = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3)),
            max_size=8))
        for i, j, q in ops:
            if i != j:
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        mus = dual_basis(rows)
        for k in range(n):
            for l in range(n):
                assert sum(a * b for a, b in zip(mus[k], rows[l])) == int(k == l)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_determinant_of_a_failing_block(self, n, data):
        """NotUnimodular carries the signed determinant of the block."""
        rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        det = fraction_det(rows)
        if det in (1, -1):
            assert len(dual_basis(rows)) == n
            return
        with pytest.raises(NotUnimodular) as exc:
            dual_basis(rows)
        assert exc.value.det == det
        assert str(exc.value) == f"|det| = {abs(det)} != 1"
