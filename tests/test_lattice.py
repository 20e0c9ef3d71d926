from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasik.lattice import (
    IntMat,
    _eliminate_unit_pivots,
    NotPrimitive,
    NotUnimodular,
    RankError,
    block_diag,
    complete_to_unimodular,
    dual_basis,
    normalize_sign,
    primitive_kernel_vector,
    quotient_projection,
    right_kernel_basis,
    snf,
    snf_diagonal,
    vec_gcd,
)


def check_snf_contract(A):
    s = snf(A)
    assert s.U @ A @ s.V == s.D
    assert abs(s.U.det()) == 1
    assert abs(s.V.det()) == 1
    # D diagonal, nonnegative, divisibility chain, zeros trailing
    for i in range(s.D.rows):
        for j in range(s.D.cols):
            if i != j:
                assert s.D.data[i][j] == 0
    diag = list(s.diagonal())
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return s


def rational_left_kernel(B):
    """Oracle: left kernel of B over Q by Gaussian elimination, denominators cleared."""
    # nullspace of B^T x = 0 over Q
    mat = [[Fraction(B.data[i][j]) for i in range(B.rows)] for j in range(B.cols)]
    m, nn = len(mat), B.rows
    piv = []
    r = 0
    for c in range(nn):
        pr = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv.append(c)
        r += 1
    free = [c for c in range(nn) if c not in piv]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nn
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -mat[i][fc]
        lcm = 1
        for x in v:
            lcm = lcm * x.denominator // vec_gcd((lcm, x.denominator))
        ints = tuple(int(x * lcm) for x in v)
        g = vec_gcd(ints)
        basis.append(tuple(x // g for x in ints))
    return basis


class TestSnf:
    def test_diag_2_3(self):
        A = IntMat.from_rows([[2, 0], [0, 3]])
        s = check_snf_contract(A)
        assert s.diagonal() == (1, 6)

    def test_identity(self):
        A = IntMat.identity(3)
        s = check_snf_contract(A)
        assert s.D == A
        assert s.U == A
        assert s.V == A

    def test_zero_1x1(self):
        A = IntMat.from_rows([[0]])
        s = check_snf_contract(A)
        assert s.D == A

    def test_empty_shapes(self):
        check_snf_contract(IntMat.from_rows([], cols=3))
        check_snf_contract(IntMat.from_rows([[1, 2, 3]]))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_random_contract(self, r, c, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r))
        A = IntMat.from_rows(rows)
        s = check_snf_contract(A)
        assert snf_diagonal(A) == s.diagonal()


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
        A = IntMat.from_rows(rows, cols=cols)
        assert snf_diagonal(A) == expected == snf(A).diagonal()

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
        A = IntMat.from_rows(rows, cols=c)
        assert snf_diagonal(A) == snf(A).diagonal()


class TestPrimitiveKernelVector:
    def test_coordinate_column(self):
        B = IntMat.from_cols([(1, 0)])
        assert primitive_kernel_vector(B) == (0, 1)

    def test_negative_column(self):
        B = IntMat.from_cols([(-1, -1)])
        assert primitive_kernel_vector(B) == (1, -1)

    def test_two_coordinate_columns(self):
        B = IntMat.from_cols([(1, 0, 0), (0, 1, 0)])
        assert primitive_kernel_vector(B) == (0, 0, 1)

    def test_empty_matrix_dimension_one(self):
        B = IntMat.from_rows([[]] , cols=0)
        assert primitive_kernel_vector(B) == (1,)

    def test_rank_error(self):
        B = IntMat.from_cols([(1, 2, 3), (2, 4, 6)])
        with pytest.raises(RankError):
            primitive_kernel_vector(B)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_against_rational_nullspace(self, n, data):
        cols = data.draw(st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=n - 1, max_size=n - 1))
        B = IntMat.from_cols(cols, rows=n)
        oracle = rational_left_kernel(B)
        if len(oracle) != 1:
            with pytest.raises(RankError):
                primitive_kernel_vector(B)
            return
        u = primitive_kernel_vector(B)
        assert B.T.matvec(u) == (0,) * B.cols
        assert vec_gcd(u) == 1
        assert u in (oracle[0], tuple(-x for x in oracle[0]))
        assert u == normalize_sign(u)


class TestCompleteToUnimodular:
    def test_first_standard_vector(self):
        assert complete_to_unimodular((1, 0, 0)) == IntMat.identity(3)

    def test_2_3(self):
        C = complete_to_unimodular((2, 3))
        assert C.row(0) == (2, 3)
        assert abs(C.det()) == 1

    def test_not_primitive(self):
        with pytest.raises(NotPrimitive):
            complete_to_unimodular((2, 4))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_random_primitive(self, n, data):
        v = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)
                      .filter(lambda w: any(w)))
        g = vec_gcd(v)
        u = tuple(x // g for x in v)
        C = complete_to_unimodular(u)
        assert C.row(0) == u
        assert abs(C.det()) == 1


class TestDualBasis:
    def test_identity(self):
        mus = dual_basis(IntMat.identity(3))
        assert mus == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_projective_plane_vertex(self):
        V = IntMat.from_rows([[1, 0], [-1, -1]])
        mus = dual_basis(V)
        assert mus == [(1, -1), (0, -1)]
        for k, mu in enumerate(mus):
            for l in range(2):
                assert sum(a * b for a, b in zip(mu, V.row(l))) == int(k == l)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            dual_basis(IntMat.from_rows([[2, 0], [0, 1]]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_random_unimodular(self, n, data):
        # random unimodular matrix built from row operations on the identity
        rows = [list(r) for r in IntMat.identity(n).data]
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
                assert sum(a * b for a, b in zip(mus[k], V.row(l))) == int(k == l)


class TestQuotientProjection:
    def test_trivial_sublattice(self):
        assert quotient_projection([], 3) == IntMat.identity(3)

    def test_coordinate_line(self):
        P = quotient_projection([(0, 1)], 2)
        assert P.rows == 1 and P.cols == 2
        assert P.matvec((0, 1)) == (0,)
        assert snf_diagonal(P) == (1,)

    def test_full_lattice(self):
        P = quotient_projection([(1, 0), (0, 1)], 2)
        assert P.rows == 0 and P.cols == 2

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_random_saturated(self, n, data):
        # saturated sublattices: Z-spans of subsets of a unimodular matrix's rows
        rows = [list(r) for r in IntMat.identity(n).data]
        ops = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3)),
            max_size=8))
        for i, j, q in ops:
            if i != j:
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        k = data.draw(st.integers(0, n))
        basis = [tuple(r) for r in rows[:k]]
        P = quotient_projection(basis, n)
        assert P.rows == n - k
        for b in basis:
            assert P.matvec(b) == (0,) * (n - k)
        assert all(d == 1 for d in snf_diagonal(P))


class TestSolveAndKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_kernel_basis(self, r, c, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r, max_size=r))
        A = IntMat.from_rows(rows)
        for v in right_kernel_basis(A):
            assert A.matvec(v) == (0,) * r


def test_block_diag():
    A = IntMat.from_rows([[1, 2]])
    B = IntMat.identity(1)
    C = block_diag(A, B)
    assert C.rows == 2 and C.cols == 3
    assert C.data == ((1, 2, 0), (0, 0, 1))
