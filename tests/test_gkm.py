import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasik import gkm
from quasik.facering import interpolate
from quasik.gkm import (
    FixedPointTuple,
    GkmEdge,
    GkmGraph,
    euler_coprimality_check,
    in_gamma,
    in_w,
)
from quasik.documents import build_polytope
from quasik.harness import perturb_one_entry, random_member_tuple
from quasik.lattice import normalize_sign, vec_gcd
from quasik.laurent import (
    LaurentPoly, ProfileMismatch, char_profile, project_terms, substitute_monomial_map)
from quasik.polytope import SimplePolytope, fmt_facets

from conftest import faces_by_definition, join

INTERVAL = SimplePolytope(1, 2, [[1], [2]])
TRIANGLE = SimplePolytope(2, 3, [[1, 2], [1, 3], [2, 3]])
SQUARE = SimplePolytope(2, 4, [[1, 2], [2, 3], [3, 4], [1, 4]])

CP1 = GkmGraph(INTERVAL, [[1], [-1]])
CP2 = GkmGraph(TRIANGLE, [[1, 0], [0, 1], [-1, -1]])
H1 = GkmGraph(SQUARE, [[1, 0], [0, 1], [-1, 1], [0, -1]])
CP2_BOTT = GkmGraph(TRIANGLE, [[1, 0], [0, 1], [-1, -1]], bott=True)


def cube_graph():
    verts = [[1 + 3 * x, 2 + 3 * y, 3 + 3 * z]
             for z in (0, 1) for y in (0, 1) for x in (0, 1)]
    P = SimplePolytope(3, 6, verts)
    lam = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    return GkmGraph(P, lam)


def rational_left_kernel(B):
    """Oracle: left kernel of B (its rows, all of one length) over Q by
    Gaussian elimination, denominators cleared."""
    # nullspace of B^T x = 0 over Q
    mat = [[Fraction(B[i][j]) for i in range(len(B))] for j in range(len(B[0]))]
    m, nn = len(mat), len(B)
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


def mono(g, u, coeff=1):
    return LaurentPoly.char_monomial(g.char_profile, u, coeff)


def r_like(g, i):
    """Restriction tuple of the facet-i line bundle, straight from the mu data."""
    one = LaurentPoly.one(g.char_profile)
    return FixedPointTuple(g.char_profile, tuple(
        mono(g, g.mu[v][i]) if i in g.polytope.vertices[v] else one
        for v in range(g.m)))


class TestBuild:
    def test_cp1_single_edge(self):
        assert CP1.edges == (GkmEdge(0, 1, frozenset(), (1,)),)

    def test_cp2_edge_characters(self):
        by_facet = {tuple(sorted(e.facets)): e.character for e in CP2.edges}
        assert by_facet == {(1,): (0, 1), (2,): (1, 0), (3,): (1, -1)}

    def test_h1_edge_on_facet_three(self):
        by_facet = {tuple(sorted(e.facets)): e.character for e in H1.edges}
        assert by_facet[(3,)] == (1, 1)

    def test_characters_orthogonal_to_facets(self):
        for g in (CP1, CP2, H1, cube_graph()):
            for e in g.edges:
                for i in e.facets:
                    assert sum(a * b for a, b in zip(e.character, g.lam_row(i))) == 0

    def test_characters_against_rational_kernel(self, graphs):
        for g in (CP1, CP2, H1, cube_graph(), *graphs.values()):
            for e in g.edges:
                cols = [g.lam_row(i) for i in sorted(e.facets)]
                B = tuple(zip(*cols)) or ((),) * g.n
                oracle = rational_left_kernel(B)
                assert len(oracle) == 1
                assert e.character == normalize_sign(oracle[0])

    def test_mu_kronecker_pairings(self):
        for g in (CP1, CP2, H1, cube_graph()):
            for v in range(g.m):
                for i, mu in g.mu[v].items():
                    for l in g.polytope.vertices[v]:
                        expect = int(i == l)
                        assert sum(a * b for a, b in zip(mu, g.lam_row(l))) == expect


class TestEulerCoprimality:
    def test_bundled_graphs_pass(self):
        for g in (CP1, CP2, H1, cube_graph()):
            assert euler_coprimality_check(g).ok

    def test_duplicated_character_fails(self):
        g = GkmGraph(TRIANGLE, [[1, 0], [0, 1], [-1, -1]])
        bad = tuple(GkmEdge(e.v, e.w, e.facets, (0, 1)) for e in g.edges)
        g.edges = bad
        rep = euler_coprimality_check(g)
        assert not rep.ok
        assert "dependent" in rep.failures[0]


def restricted(g, a, face):
    """a restricted to the face: the restriction map's image of a projected
    onto the face's facets, ascending, then z, as in_w compares entries."""
    image = substitute_monomial_map(a, g.restriction_map)
    return LaurentPoly(char_profile(len(face.facets), g.bott),
                       project_terms(image.terms, g.face_pick(face.facets)))


class TestFacePicks:
    """One coordinate getter per facet set, made on first use and kept in
    the graph's picks, which in_w and interpolate's divisibility check
    both read."""

    def test_built_once_per_facet_set(self, monkeypatch, graphs, orders):
        built = []
        real = gkm.coordinate_getter
        monkeypatch.setattr(gkm, "coordinate_getter", lambda idx: built.append(idx) or real(idx))
        for name, g0 in graphs.items():
            g = GkmGraph(g0.polytope, g0.lam, bott=g0.bott)
            t = random_member_tuple(random.Random(name), g)
            built.clear()
            for _ in range(2):
                assert in_w(g, t).member
                interpolate(g, orders[name], t)
            z = (g.d,) if g.bott else ()
            want = {S: tuple(i - 1 for i in sorted(S)) + z for S in g.picks}
            assert sorted(built) == sorted(want.values()), name
            exps = tuple(range(g.face_profile.nvars))
            for S, idx in want.items():
                assert g.face_pick(S)(exps) == idx, (name, S)
            assert len(built) == len(want), name


class TestRestriction:
    def test_vertex_restriction_faithful(self):
        face = TRIANGLE.face_of({1, 2})
        f = mono(CP2, (1, 0)) - mono(CP2, (0, 1))
        r = restricted(CP2, f, face)
        assert len(r.terms) == 2

    def test_edge_restriction(self):
        face = TRIANGLE.face_of({1})
        f = mono(CP2, (1, 0)) - mono(CP2, (0, 1))  # t1 - t2
        r = restricted(CP2, f, face)
        p1 = char_profile(1)
        assert r == LaurentPoly.monomial(p1, (1,)) - LaurentPoly.one(p1)

    def test_whole_polytope_is_augmentation(self):
        whole = join(SQUARE, 0, 2)
        f = LaurentPoly.one(H1.char_profile) - mono(H1, (1, 0))
        assert restricted(H1, f, whole).is_zero
        g = 3 * mono(H1, (2, -1)) + 2 * LaurentPoly.one(H1.char_profile)
        r = restricted(H1, g, whole)
        assert sum(r.terms.values()) == 5 and len(r.terms) == 1


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_character_restricts_by_lambda_rows(self, graphs, data):
        g = data.draw(st.sampled_from([CP2, CP2_BOTT, H1, *graphs.values()]))
        face = data.draw(st.sampled_from(faces_by_definition(g.polytope)))
        a = data.draw(st.tuples(*[st.integers(-4, 4)] * g.n))
        facets = sorted(face.facets)
        exps = tuple(sum(x * y for x, y in zip(a, g.lam_row(i))) for i in facets)
        target = char_profile(len(facets), g.bott)
        assert restricted(g, mono(g, a, 3), face) == \
            LaurentPoly.char_monomial(target, exps, 3)


class TestTupleArithmetic:
    """Entrywise +, - and * need tuples of one length and one profile."""

    def test_length_mismatch_raises(self):
        a, b = r_like(CP2, 1), r_like(CP2, 2)
        short = FixedPointTuple(CP2.char_profile, a.entries[:1])
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            assert len(op(a, b)) == 3
            for x, y in ((a, short), (short, a)):
                with pytest.raises(ValueError, match="tuples of"):
                    op(x, y)

    def test_profile_mismatch_raises(self):
        a = r_like(CP2, 1)
        other = FixedPointTuple.constant(CP2_BOTT.char_profile, 3,
                                         LaurentPoly.one(CP2_BOTT.char_profile))
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(ProfileMismatch):
                op(a, other)

    def test_scalar_product(self):
        t = r_like(CP2, 1)
        c = mono(CP2, (1, -1), 2)
        for got, scale in ((2 * t, 2), (t * 2, 2), (t * c, c), (c * t, c)):
            assert len(got) == 3
            assert got.entries == tuple(a * scale for a in t.entries)
        assert c * t == t * c

    def test_polynomial_plus_tuple_raises(self):
        """LaurentPoly + and - give NotImplemented for a tuple operand, and a
        tuple has no reflected + or -, so Python raises TypeError."""
        t = r_like(CP2, 1)
        c = mono(CP2, (1, -1), 2)
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(TypeError):
                op(c, t)
        for op in (c.__add__, c.__sub__, c.__mul__):
            assert op(t) is NotImplemented


class TestInGamma:
    def test_cp1_member(self):
        t = FixedPointTuple(CP1.char_profile, (mono(CP1, (1,)), LaurentPoly.one(CP1.char_profile)))
        assert in_gamma(CP1, t).member

    def test_cp1_non_member(self):
        one = LaurentPoly.one(CP1.char_profile)
        t = FixedPointTuple(CP1.char_profile, (one, one + mono(CP1, (1,))))
        rep = in_gamma(CP1, t)
        assert not rep.member
        assert rep.witness.kind == "edge"

    def test_constant_tuples(self):
        for g in (CP1, CP2, H1):
            c = mono(g, (2,) + (0,) * (g.n - 1), 3) - LaurentPoly.one(g.char_profile)
            t = FixedPointTuple.constant(g.char_profile, g.m, c)
            assert in_gamma(g, t).member
            assert in_w(g, t).member

    def test_r_tuples_are_members(self):
        for g in (CP1, CP2, H1, cube_graph()):
            for i in range(1, g.d + 1):
                t = r_like(g, i)
                assert in_gamma(g, t).member
                assert in_w(g, t).member

    def test_sign_invariance(self):
        g = GkmGraph(TRIANGLE, [[1, 0], [0, 1], [-1, -1]])
        t = r_like(g, 1) * r_like(g, 3) + 2 * r_like(g, 2)
        bad = t.replace(0, t[0] + mono(g, (1, 1)))
        flipped = tuple(
            GkmEdge(e.v, e.w, e.facets, tuple(-x for x in e.character)) for e in g.edges)
        for tup in (t, bad):
            before = in_gamma(g, tup).member
            g.edges, saved = flipped, g.edges
            try:
                assert in_gamma(g, tup).member == before
            finally:
                g.edges = saved


class TestInW:
    def test_cp1_member(self):
        t = FixedPointTuple(CP1.char_profile, (mono(CP1, (1,)), LaurentPoly.one(CP1.char_profile)))
        assert in_w(CP1, t).member

    def test_cp2_r3_member(self):
        assert in_w(CP2, r_like(CP2, 3)).member

    def test_cp2_non_member(self):
        zero = LaurentPoly.zero(CP2.char_profile)
        one = LaurentPoly.one(CP2.char_profile)
        rep = in_w(CP2, FixedPointTuple(CP2.char_profile, (zero, zero, one)))
        assert not rep.member
        assert rep.witness.kind == "pair"

    def test_witness_prints_lambda_coordinates(self):
        # the join of {3,4} and {1,4} is facet 4, lambda_4 = (0, -1): e^(1,1) -> t1^-1
        one = LaurentPoly.one(H1.char_profile)
        t = FixedPointTuple(H1.char_profile, (one, one, mono(H1, (1, 1)), one))
        rep = in_w(H1, t)
        assert rep.witness.text(H1.polytope) == \
            "pair {3,4} -- {1,4}: restrictions to face {4} differ: t1^-1 vs 1"

    def test_edge_joins_equal_edge_faces(self):
        # the edge reduction inside in_gamma matches the joins used by in_w
        for g in (CP1, CP2, H1, cube_graph()):
            for e in g.edges:
                assert join(g.polytope, e.v, e.w).facets == e.facets

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_agreement_on_random_tuples(self, data):
        g = CP2
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
        t = (coeffs[0] * r_like(g, 1) + coeffs[1] * r_like(g, 2)
             + coeffs[2] * r_like(g, 1) * r_like(g, 3))
        assert in_gamma(g, t).member and in_w(g, t).member
        u = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        which = data.draw(st.integers(0, g.m - 1))
        bad = t.replace(which, t[which] + mono(g, u))
        assert in_gamma(g, bad).member == in_w(g, bad).member == False


class TestWitnessTexts:
    """The first witness of a non-member: 1 + 3 e^(2,-1) at the last vertex,
    times z on a Bott profile."""

    TEXTS = {
        ("H1", False): (
            "pair {1,2} -- {1,4}: restrictions to face {1} differ: 1 vs 1 + 3*t1^2",
            "edge {1,2} -- {1,4}: difference -3*t1^2*t2^-1 not divisible by 1 - e^-(0, 1)"),
        ("CP2", False): (
            "pair {1,2} -- {2,3}: restrictions to face {2} differ: 1 vs 3*t1^-1 + 1",
            "edge {1,2} -- {2,3}: difference -3*t1^2*t2^-1 not divisible by 1 - e^-(1, 0)"),
        ("H1", True): (
            "pair {1,2} -- {1,4}: restrictions to face {1} differ: 1 vs 1 + 3*t1^2*z",
            "edge {1,2} -- {1,4}: difference -3*t1^2*t2^-1*z not divisible by 1 - e^-(0, 1)"),
        ("CP2", True): (
            "pair {1,2} -- {2,3}: restrictions to face {2} differ: 1 vs 3*t1^-1*z + 1",
            "edge {1,2} -- {2,3}: difference -3*t1^2*t2^-1*z not divisible by 1 - e^-(1, 0)"),
    }

    @pytest.mark.parametrize("name, bott", sorted(TEXTS))
    def test_first_witness(self, name, bott):
        P, lam = {"H1": (SQUARE, H1.lam), "CP2": (TRIANGLE, CP2.lam)}[name]
        g = GkmGraph(P, lam, bott=bott)
        z = (1,) if bott else ()
        one = LaurentPoly.one(g.char_profile)
        last = one + LaurentPoly(g.char_profile, {(2, -1) + z: 3})
        t = FixedPointTuple(g.char_profile, [one] * (g.m - 1) + [last])
        texts = tuple(check(g, t).witness.text(P) for check in (in_w, in_gamma))
        assert texts == self.TEXTS[name, bott]

    def test_in_w_reads_no_step_map(self):
        g = GkmGraph(SQUARE, H1.lam)
        one = LaurentPoly.one(g.char_profile)
        assert in_w(g, FixedPointTuple.constant(g.char_profile, g.m, one)).member
        assert "step_maps" not in vars(g)


def reference_in_w(g, t):
    """All-pairs face agreement restricting through explicit lambda-row
    pairings, z carried: (member, witness text or None)."""
    P = g.polytope
    for v in range(g.m):
        for w in range(v + 1, g.m):
            face = join(P, v, w)
            facets = sorted(face.facets)
            profile = char_profile(len(facets), g.bott)

            def restrict(a):
                out = {}
                for exp, c in a.terms.items():
                    key = tuple(sum(x * y for x, y in zip(exp, g.lam_row(i)))
                                for i in facets) + exp[g.n:]
                    out[key] = out.get(key, 0) + c
                return LaurentPoly(profile, out)

            a, b = restrict(t[v]), restrict(t[w])
            if a != b:
                return False, (f"pair {fmt_facets(P.vertices[v])} -- {fmt_facets(P.vertices[w])}: "
                               f"restrictions to {face.label()} differ: {a.text()} vs {b.text()}")
    return True, None


class TestInWReference:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_all_pairs_reference(self, documents, generated, data):
        """Members and perturb_one_entry non-members, in both profiles; on a
        Bott profile the tuple is a + z*b, and either part may be perturbed."""
        docs = {**documents, **{name: doc for name, (doc, _, _) in generated.items()}}
        name = data.draw(st.sampled_from(sorted(docs)), label="input")
        bott = data.draw(st.booleans(), label="bott")
        g = GkmGraph(build_polytope(docs[name]), docs[name].lam, bott=bott)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        member = data.draw(st.booleans(), label="member")
        parts = [random_member_tuple(rng, g) for _ in range(1 + bott)]
        if not member:
            k = rng.randrange(len(parts))
            parts[k] = perturb_one_entry(rng, g, parts[k])
        t = parts[0]
        if bott:
            t = t + parts[1] * LaurentPoly(g.char_profile, {(0,) * g.n + (1,): 1})
        rep = in_w(g, t)
        assert (rep.member, rep.witness and rep.witness.text(g.polytope)) == \
            reference_in_w(g, t)
        assert rep.member == member
