from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quasik.lattice import (
    IntMat,
    SparseMat,
    _eliminate_unit_pivots,
    NotUnimodular,
    dual_basis,
    snf,
    snf_diagonal,
)


def identity(n):
    return IntMat(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def sparse(A):
    """A dense IntMat as the SparseMat snf_diagonal takes, zero rows kept."""
    return SparseMat(A.cols, tuple({j: v for j, v in enumerate(r) if v} for r in A.data))


def determinantal_divisors(A):
    """Oracle: d_k = gcd of the k x k minors of A, for k = 1..min(rows, cols)."""
    out = []
    for k in range(1, min(A.rows, A.cols) + 1):
        d = 0
        for rs in combinations(range(A.rows), k):
            for cs in combinations(range(A.cols), k):
                d = gcd(d, IntMat.from_rows([[A.data[i][j] for j in cs] for i in rs]).det())
        out.append(d)
    return out


class TestSnf:
    def test_diag_2_3(self):
        assert snf(IntMat.from_rows([[2, 0], [0, 3]])) == (1, 6)

    def test_identity(self):
        assert snf(identity(3)) == (1, 1, 1)

    def test_zero_1x1(self):
        assert snf(IntMat.from_rows([[0]])) == (0,)

    def test_empty_shapes(self):
        assert snf(IntMat(0, 3, ())) == ()
        assert snf(IntMat.from_rows([[1, 2, 3]])) == (1,)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_random_contract(self, r, c, data):
        """The k-th invariant factor is d_k / d_(k-1), or 0 once d_k is 0."""
        rows = data.draw(st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r))
        A = IntMat.from_rows(rows)
        expected = []
        prev = 1
        for d in determinantal_divisors(A):
            expected.append(d // prev if d else 0)
            prev = d or 1
        assert snf(A) == snf_diagonal(sparse(A)) == tuple(expected)


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
        A = IntMat(len(rows), cols, tuple(map(tuple, rows)))
        assert snf_diagonal(sparse(A)) == expected == snf(A)

    def test_unit_pivot_leaves_the_schur_complement(self):
        rows = {0: {0: 1, 1: 2}, 1: {0: 3, 1: 4}, 2: {2: 2}}
        assert _eliminate_unit_pivots(rows) == 1
        assert rows == {1: {1: -2}, 2: {2: 2}}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6),
           st.sampled_from([(-1, 1), (-4, -2, 0, 2, 6), (-1, 0, 1), (-3, -1, 0, 0, 1, 2, 5)]),
           st.data())
    def test_matches_snf(self, r, c, values, data):
        rows = data.draw(st.lists(st.lists(st.sampled_from(values), min_size=c, max_size=c),
                                  min_size=r, max_size=r))
        A = IntMat(r, c, tuple(map(tuple, rows)))
        S = sparse(A)
        before = [dict(row) for row in S.data]
        assert snf_diagonal(S) == snf(A)
        assert list(S.data) == before   # the rows are left as they were


class TestDualBasis:
    def test_identity(self):
        mus = dual_basis(identity(3))
        assert mus == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_projective_plane_vertex(self):
        V = IntMat.from_rows([[1, 0], [-1, -1]])
        mus = dual_basis(V)
        assert mus == [(1, -1), (0, -1)]
        for k, mu in enumerate(mus):
            for l in range(2):
                assert sum(a * b for a, b in zip(mu, V.data[l])) == int(k == l)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            dual_basis(IntMat.from_rows([[2, 0], [0, 1]]))
        with pytest.raises(NotUnimodular):
            dual_basis(IntMat.from_rows([[1, 2], [2, 4]]))
        with pytest.raises(NotUnimodular):
            dual_basis(IntMat.from_rows([[1, 0]]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_random_unimodular(self, n, data):
        # random unimodular matrix built from row operations on the identity
        rows = [list(r) for r in identity(n).data]
        ops = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3)),
            max_size=8))
        for i, j, q in ops:
            if i != j:
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        V = IntMat.from_rows(rows)
        mus = dual_basis(V)
        for k in range(n):
            for l in range(n):
                assert sum(a * b for a, b in zip(mus[k], V.data[l])) == int(k == l)

