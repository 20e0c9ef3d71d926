import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_substitute, json_terms
from quasik.cli import _json_text
from quasik.lattice import NotPrimitive, _xgcd, vec_gcd
from quasik.laurent import (
    DimensionMismatch,
    LaurentPoly,
    add_terms,
    MonomialMap,
    NotDivisible,
    ProfileMismatch,
    ZeroCharacter,
    char_profile,
    coordinate_getter,
    divides_one_minus,
    face_profile,
    project_terms,
    substitute_monomial_map,
)

P2 = char_profile(2)
P2Z = char_profile(2, bott=True)


def poly(profile, *terms):
    return LaurentPoly(profile, {tuple(e): c for e, c in terms})


def polys(profile, max_terms=4, bound=3, coeff=5):
    exps = st.tuples(*[st.integers(-bound, bound)] * profile.nvars)
    return st.dictionaries(exps, st.integers(-coeff, coeff), max_size=max_terms).map(
        lambda d: LaurentPoly(profile, d))


def dense(src, dst, rows):
    """The map src -> dst of a dense matrix with at least one row, reading
    every column."""
    return MonomialMap(src, dst, range(len(rows[0])), range(len(rows)), rows)


def identity(profile):
    n = profile.count
    return dense(profile, profile, [[int(i == j) for j in range(n)] for i in range(n)])


def primitive_chars(n, bound=3):
    return st.tuples(*[st.integers(-bound, bound)] * n).filter(any).map(
        lambda v: tuple(x // vec_gcd(v) for x in v))


class TestConstruction:
    def test_pairs_with_equal_exponents_are_summed(self):
        p1 = char_profile(1)
        assert LaurentPoly(p1, [((1,), 2), ((1,), -2)]).terms == {}
        assert LaurentPoly(p1, [((1,), 2), ((1,), 3)]).terms == {(1,): 5}
        merged = LaurentPoly(p1, [((1,), 2), ((1.0,), 3)]).terms
        assert merged == {(1,): 5}
        assert [type(e) for exp in merged for e in exp] == [int]

    @pytest.mark.parametrize("terms, bad", [
        ({(1,): 0.4}, "0.4"),
        ({(1,): 2.5}, "2.5"),
        ({(1,): Fraction(7, 2)}, "Fraction(7, 2)"),
        ({(1.5,): 1}, "(1.5,)"),
    ], ids=["coeff-0.4", "coeff-2.5", "coeff-fraction", "exponent-1.5"])
    def test_non_integers_are_refused(self, terms, bad):
        with pytest.raises(ValueError, match=re.escape(bad)):
            LaurentPoly(char_profile(1), terms)

    def test_monomial_refuses_a_fractional_coefficient(self):
        with pytest.raises(ValueError, match="2.9"):
            LaurentPoly.monomial(char_profile(1), (1,), 2.9)
        assert LaurentPoly.monomial(char_profile(1), (1,), 3.0).terms == {(1,): 3}


class TestAddTerms:
    def test_sum_cancels_to_empty(self):
        acc = {(1,): 2, (0,): -1}
        assert add_terms(acc, [((1,), -2), ((0,), 1)]) == {}

    def test_sign_minus_one(self):
        acc = {(1,): 2}
        assert add_terms(acc, [((1,), 2), ((2,), 3)], -1) == {(2,): -3}

    def test_zero_on_a_missing_key_leaves_acc_unchanged(self):
        acc = {(1,): 2}
        assert add_terms(acc, [((5,), 0)]) == {(1,): 2}

    def test_returns_acc_itself(self):
        acc = {}
        assert add_terms(acc, [((1,), 4)]) is acc
        assert acc == {(1,): 4}


class TestArithmetic:
    def test_difference_of_squares(self):
        t1 = LaurentPoly.variable(P2, 0)
        assert (1 - t1) * (1 + t1) == 1 - t1 * t1

    def test_additive_inverse(self):
        f = poly(P2, ((1, -2), 3), ((0, 0), -1))
        assert (f + (-f)).is_zero

    def test_unit_inverse(self):
        t1 = LaurentPoly.variable(P2, 0)
        assert (t1 ** -1) * t1 == LaurentPoly.one(P2)

    def test_profile_mismatch(self):
        with pytest.raises(ProfileMismatch):
            LaurentPoly.one(P2) + LaurentPoly.one(char_profile(3))
        with pytest.raises(ProfileMismatch):
            LaurentPoly.one(P2) - LaurentPoly.one(char_profile(3))

    def test_pow_negative_non_monomial(self):
        t1 = LaurentPoly.variable(P2, 0)
        with pytest.raises(NotDivisible):
            (1 + t1) ** -1

    def test_bott_variable_is_ordinary(self):
        z = LaurentPoly.variable(P2Z, 2)
        assert z * z ** -1 == LaurentPoly.one(P2Z)

    @settings(max_examples=60, deadline=None)
    @given(polys(P2), polys(P2), polys(P2))
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=100, deadline=None)
    @given(polys(P2Z, max_terms=5, bound=2, coeff=3), polys(P2Z, max_terms=5, bound=2, coeff=3))
    def test_operations_match_a_dict_of_sums(self, f, g):
        """+, - and * against sums built in a plain dict, zeros dropped at the end."""
        def reference(pairs):
            sums = {}
            for e, c in pairs:
                sums[e] = sums.get(e, 0) + c
            return {e: c for e, c in sums.items() if c}
        F, G = list(f.terms.items()), list(g.terms.items())
        expected = {
            "+": reference(F + G),
            "-": reference(F + [(e, -c) for e, c in G]),
            "*": reference([(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                            for e1, c1 in F for e2, c2 in G]),
        }
        got = {"+": f + g, "-": f - g, "*": f * g}
        for op, p in got.items():
            assert p.terms == expected[op], op
            assert all(p.terms.values()), op
        assert (f - f).terms == {}


class TestRendering:
    def test_text(self):
        t1 = LaurentPoly.variable(P2, 0)
        assert (1 - t1 * t1).text() == "1 - t1^2"
        assert LaurentPoly.zero(P2).text() == "0"
        assert poly(P2, ((2, -1), 3), ((0, 0), 2)).text() == "2 + 3*t1^2*t2^-1"

    def test_face_names(self):
        y = face_profile(2)
        assert LaurentPoly.variable(y, 1).text() == "y2"

    def test_json_terms(self):
        f = poly(P2, ((1, 0), -1), ((0, 0), 1))
        assert json_terms(f) == [{"coeff": 1, "exps": [0, 0]}, {"coeff": -1, "exps": [1, 0]}]
        assert json.loads(_json_text(f)) == json_terms(f)


class TestSubstitution:
    def test_identity(self):
        t1 = LaurentPoly.variable(P2, 0)
        assert substitute_monomial_map(t1, identity(P2)) == t1

    def test_projection(self):
        f = poly(P2, ((1, 0), 1), ((0, 1), -1))  # t1 - t2
        A = dense(P2, char_profile(1), [[1, 0]])
        g = substitute_monomial_map(f, A)
        assert g == poly(char_profile(1), ((1,), 1), ((0,), -1))

    def test_shear(self):
        f = poly(P2, ((0, 0), 1), ((1, -1), -1))  # 1 - t1*t2^-1
        A = dense(P2, P2, [[1, 1], [0, 1]])
        assert substitute_monomial_map(f, A) == poly(P2, ((0, 0), 1), ((0, -1), -1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            substitute_monomial_map(LaurentPoly.one(P2), identity(char_profile(3)))

    def test_profile_kind_mismatch(self):
        """A map reads one profile: a polynomial of the other kind with as
        many variables is refused, not substituted."""
        A = identity(face_profile(2))
        with pytest.raises(DimensionMismatch):
            substitute_monomial_map(LaurentPoly.variable(P2, 0), A)
        y1 = LaurentPoly.variable(face_profile(2), 0)
        assert substitute_monomial_map(y1, A) == y1

    def test_bott_exponent_carried(self):
        f = poly(P2Z, ((1, 2, 3), 1), ((0, -1, -2), 5))  # t1*t2^2*z^3 + 5*t2^-1*z^-2
        A = dense(P2Z, char_profile(1, bott=True), [[1, 1]])
        expected = poly(char_profile(1, bott=True), ((3, 3), 1), ((-1, -2), 5))
        assert substitute_monomial_map(f, A) == expected
        y = face_profile(3, bott=True)
        B = dense(P2Z, y, [[1, 0], [0, 1], [1, 1]])
        assert substitute_monomial_map(f, B) == poly(y, ((1, 2, 3, 3), 1), ((0, -1, -1, -2), 5))

    def test_bott_mismatch(self):
        with pytest.raises(DimensionMismatch):
            substitute_monomial_map(LaurentPoly.one(P2Z), identity(P2))
        with pytest.raises(DimensionMismatch):
            substitute_monomial_map(LaurentPoly.one(P2), identity(P2Z))
        # a map's own profiles agree on z
        with pytest.raises(DimensionMismatch):
            dense(P2, P2Z, [[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatch):
            dense(P2Z, P2, [[1, 0], [0, 1]])

    @settings(max_examples=60, deadline=None)
    @given(polys(P2), polys(P2), st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                                          min_size=2, max_size=2))
    def test_ring_homomorphism(self, f, g, rows):
        A = dense(P2, P2, rows)
        sub = lambda p: substitute_monomial_map(p, A)
        assert sub(f * g) == sub(f) * sub(g)
        assert sub(f + g) == sub(f) + sub(g)


def dense_rows(A):
    """The full dst.count x src.count matrix of a MonomialMap."""
    rows = [[0] * A.src.count for _ in range(A.dst.count)]
    for i, r in zip(A.target, A.block):
        for j, x in zip(A.source, r):
            rows[i][j] = x
    return rows


@st.composite
def sparse_maps(draw):
    cols = draw(st.integers(0, 4))
    rows = draw(st.integers(0, 4))
    source = draw(st.lists(st.integers(0, max(cols - 1, 0)), unique=True, max_size=cols))
    target = draw(st.lists(st.integers(0, max(rows - 1, 0)), unique=True, max_size=rows))
    block = [[draw(st.integers(-2, 2)) for _ in source] for _ in target]
    bott = draw(st.booleans())
    return MonomialMap(face_profile(cols, bott), char_profile(rows, bott), source, target, block)


class TestMonomialMap:
    @settings(max_examples=200, deadline=None)
    @given(sparse_maps(), st.data())
    def test_matches_dense_reference(self, A, data):
        """Terms come in pairs that agree on the source coordinates, so they
        collide after the projection; with opposite coefficients they cancel."""
        src = A.src
        exps = st.tuples(*[st.integers(-2, 2)] * src.nvars)
        terms = {}
        for e, c in data.draw(st.lists(st.tuples(exps, st.integers(-3, 3)), max_size=5)):
            terms[e] = terms.get(e, 0) + c
            if data.draw(st.booleans()):
                shadow = list(data.draw(exps))
                for j in A.source:
                    shadow[j] = e[j]
                shadow[src.count:] = e[src.count:]
                c2 = data.draw(st.sampled_from([-c, c, 1]))
                terms[tuple(shadow)] = terms.get(tuple(shadow), 0) + c2
        f = LaurentPoly(src, terms)
        assert substitute_monomial_map(f, A) == dense_substitute(f, dense_rows(A), A.dst)

    def test_colliding_terms_cancel(self):
        y = face_profile(3)
        f = poly(y, ((1, 2, 0), 1), ((1, -1, 0), -1), ((0, 0, 1), 2), ((0, 3, 1), 5))
        x = char_profile(2)
        A = MonomialMap(y, x, [0, 2], [0, 1], [[1, 0], [0, 1]])
        assert substitute_monomial_map(f, A) == poly(x, ((0, 1), 7))
        B = MonomialMap(y, x, [0], [1], [[2]])
        assert substitute_monomial_map(f, B) == poly(x, ((0, 0), 7))
        assert substitute_monomial_map(f * (1 - LaurentPoly.variable(y, 1)), B).is_zero

    def test_projection_sets_left_out_coordinates_to_one(self):
        y = face_profile(3, bott=True)
        f = poly(y, ((1, 2, 0, 1), 1), ((1, -1, 0, 1), -1), ((0, 0, 1, 0), 2))
        assert project_terms(f.terms, coordinate_getter((0, 3))) == {(0, 0): 2}
        assert project_terms(f.terms, coordinate_getter((2,))) == {(1,): 2}
        divisible = f * (1 - LaurentPoly.variable(y, 1))
        assert project_terms(divisible.terms, coordinate_getter((0, 2, 3))) == {}

    def test_empty_source(self):
        y = face_profile(2, bott=True)
        f = poly(y, ((1, 0, 0), 3), ((0, -1, 2), 2), ((5, 5, 2), -2))
        x3, x0 = char_profile(3, bott=True), char_profile(0, bott=True)
        A = MonomialMap(y, x3, [], [0, 2], [[], []])
        assert substitute_monomial_map(f, A) == poly(x3, ((0, 0, 0, 0), 3))
        assert substitute_monomial_map(f, MonomialMap(y, x0, [], [], [])) == poly(x0, ((0,), 3))

    def test_bott_exponent_on_sparse_map(self):
        y = face_profile(3, bott=True)
        f = poly(y, ((1, 7, -1, 4), 2), ((1, 0, -1, 4), 1), ((0, 0, 0, -3), 1))
        x = char_profile(2, bott=True)
        A = MonomialMap(y, x, [2, 0], [1], [[3, 1]])     # t2 <- y3^3 * y1
        assert substitute_monomial_map(f, A) == poly(x, ((0, -2, 4), 3), ((0, 0, -3), 1))

    def test_bad_shapes(self):
        y, x = face_profile(3), char_profile(2)
        with pytest.raises(DimensionMismatch):
            MonomialMap(y, x, [0, 0], [0], [[1, 1]])
        with pytest.raises(DimensionMismatch):
            MonomialMap(y, x, [3], [0], [[1]])
        with pytest.raises(DimensionMismatch):
            MonomialMap(y, x, [0], [0, 1], [[1]])


def longdiv_oracle(f, u):
    """Independent check for a character u in two variables: univariate long
    division by (t1 - 1) after the coordinate change W = [[x, y], [-u2, u1]]
    with x*u1 + y*u2 = 1, which is unimodular and sends u to e_1; the
    quotient is computed from the top degree down."""
    _, x, y = _xgcd(*u)
    W = dense(f.profile, f.profile, [[x, y], [-u[1], u[0]]])
    g = substitute_monomial_map(f, W)
    if g.is_zero:
        return True
    shift = min(e[0] for e in g.terms)
    work = {(e[0] - shift,) + e[1:]: c for e, c in g.terms.items()}
    # divide the polynomial part by the monic (t1 - 1)
    while True:
        deg = max(e[0] for e in work)
        if deg == 0:
            return all(c == 0 for c in work.values())
        for e in [e for e in work if e[0] == deg]:
            c = work.pop(e)
            lower = (deg - 1,) + e[1:]
            work[lower] = work.get(lower, 0) + c
        if not work:
            return True


class TestBinomialDivisibility:
    def test_one_minus_t1(self):
        t1 = LaurentPoly.variable(P2, 0)
        assert divides_one_minus(1 - t1, (1, 0))

    def test_t1_minus_t2(self):
        f = poly(P2, ((1, 0), 1), ((0, 1), -1))
        assert divides_one_minus(f, (1, -1))

    def test_one_plus_t1(self):
        t1 = LaurentPoly.variable(P2, 0)
        assert not divides_one_minus(1 + t1, (1, 0))

    def test_errors(self):
        f = LaurentPoly.one(P2)
        with pytest.raises(ZeroCharacter):
            divides_one_minus(f, (0, 0))
        with pytest.raises(NotPrimitive):
            divides_one_minus(f, (2, 0))

    @settings(max_examples=80, deadline=None)
    @given(polys(P2), primitive_chars(2))
    def test_sign_invariance(self, f, u):
        neg = tuple(-x for x in u)
        assert divides_one_minus(f, u) == divides_one_minus(f, neg)

    @settings(max_examples=80, deadline=None)
    @given(polys(P2), primitive_chars(2))
    def test_against_longdiv_oracle(self, f, u):
        assert divides_one_minus(f, u) == longdiv_oracle(f, u)

    @settings(max_examples=40, deadline=None)
    @given(polys(P2Z, max_terms=3, bound=2), primitive_chars(2))
    def test_bott_passthrough(self, g, u):
        f = (1 - LaurentPoly.char_monomial(P2Z, tuple(-x for x in u))) * g
        assert divides_one_minus(f, u)
