import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from quasik import cli, facering, polytope
from quasik.documents import build_polytope, load_document, read_text
from quasik.gkm import GkmGraph
from quasik.lattice import NotUnimodular, is_primitive
from quasik.polytope import (
    InvalidOrder,
    NonGenericHeight,
    NotAFace,
    SimplePolytope,
    fmt_facets,
    validate_characteristic,
    validate_order,
    validate_simple,
    vertex_dual_basis,
    vertex_order_from_heights,
)

from conftest import GOOD_INPUTS, INPUTS, faces_by_definition, join

TRIANGLE = SimplePolytope(2, 3, [[1, 2], [1, 3], [2, 3]])
SQUARE = SimplePolytope(2, 4, [[1, 2], [2, 3], [3, 4], [1, 4]])
INTERVAL = SimplePolytope(1, 2, [[1], [2]])


def cube():
    verts = []
    for z in (0, 1):
        for y in (0, 1):
            for x in (0, 1):
                verts.append([1 + 3 * x, 2 + 3 * y, 3 + 3 * z])
    return SimplePolytope(3, 6, verts), [
        (x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)]


def simplex3():
    return SimplePolytope(3, 4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])


class TestValidateSimple:
    def test_triangle(self):
        assert validate_simple(TRIANGLE).ok

    def test_square(self):
        assert validate_simple(SQUARE).ok

    def test_interval(self):
        assert validate_simple(INTERVAL).ok

    def test_cube(self):
        assert validate_simple(cube()[0]).ok

    def test_degenerate_facet(self):
        P = SimplePolytope(2, 4, [[1, 2], [1, 3], [2, 3], [1, 4]])
        rep = validate_simple(P)
        assert not rep.ok
        assert any("{1,4}" in f and "{4}" in f for f in rep.failures)

    def test_duplicate_vertex(self):
        P = SimplePolytope(2, 3, [[1, 2], [1, 2]])
        rep = validate_simple(P)
        assert not rep.ok

    def test_wrong_vertex_size(self):
        P = SimplePolytope(2, 3, [[1], [2, 3], [1, 3]])
        rep = validate_simple(P)
        assert not rep.ok
        assert any("expected 2" in f for f in rep.failures)

    def test_ridge_in_one_vertex(self):
        # the square without its 4th vertex {1,4}
        rep = validate_simple(SimplePolytope(2, 4, [[1, 2], [2, 3], [3, 4]]))
        assert rep.failures == (
            "vertex {1,2}: subset {1} shared with 0 other vertices (expected 1)",
            "vertex {3,4}: subset {4} shared with 0 other vertices (expected 1)")

    def test_ridge_in_three_vertices(self):
        # the square plus a vertex {2,4}
        rep = validate_simple(SimplePolytope(2, 4, [[1, 2], [2, 3], [3, 4], [1, 4], [2, 4]]))
        assert rep.failures == (
            "facet subset {2}: contained in 3 vertices (max 2)",
            "facet subset {4}: contained in 3 vertices (max 2)",
            "vertex {1,2}: subset {2} shared with 2 other vertices (expected 1)",
            "vertex {2,3}: subset {2} shared with 2 other vertices (expected 1)",
            "vertex {3,4}: subset {4} shared with 2 other vertices (expected 1)",
            "vertex {1,4}: subset {4} shared with 2 other vertices (expected 1)",
            "vertex {2,4}: subset {2} shared with 2 other vertices (expected 1)",
            "vertex {2,4}: subset {4} shared with 2 other vertices (expected 1)")

    def test_disconnected(self):
        # two triangles, on facets 1-3 and 4-6
        rep = validate_simple(SimplePolytope(
            2, 6, [[1, 2], [1, 3], [2, 3], [4, 5], [4, 6], [5, 6]]))
        assert rep.failures == ("edge graph disconnected: vertex #4 unreachable from #1",)


class TestFaces:
    def test_face_of_raises(self):
        with pytest.raises(NotAFace):
            TRIANGLE.face_of({1, 2, 3})

    def test_edges(self):
        assert len(TRIANGLE.edges()) == 3
        assert len(SQUARE.edges()) == 4
        assert len(cube()[0].edges()) == 12
        shared = dict(((v, w), fs) for v, w, fs in TRIANGLE.edges())
        assert shared[(0, 1)] == frozenset({1})

    def test_every_vertex_has_n_edges(self):
        for P in (TRIANGLE, SQUARE, INTERVAL, cube()[0], simplex3()):
            adj = P.adjacency()
            assert all(len(a) == P.dim for a in adj)

    def test_join(self):
        # the join of two vertices is the face of the facets they share
        f = join(TRIANGLE, 0, 1)
        assert f.facets == frozenset({1})
        assert f.vertices == (0, 1)
        whole = join(SQUARE, 0, 2)
        assert whole.is_whole
        assert whole.vertices == (0, 1, 2, 3)
        C, _ = cube()
        f = join(C, 0, 3)  # (0,0,0) and (1,1,0) share the bottom facet 3
        assert f.facets == frozenset({3})

    def test_join_facets_saturated(self):
        # the shared facets are already saturated, for every pair, not only edges
        for P in (TRIANGLE, SQUARE, cube()[0], simplex3()):
            for v in range(P.m):
                for w in range(v, P.m):
                    S = P.vertices[v] & P.vertices[w]
                    assert P.face_of(S).facets == S
            for v, w, fs in P.edges():
                assert join(P, v, w).facets == fs

    def test_join_is_minimal(self):
        # every face containing both vertices has a smaller facet set
        for P in (TRIANGLE, SQUARE, cube()[0], simplex3()):
            for v in range(P.m):
                for w in range(v, P.m):
                    j = join(P, v, w)
                    for face in faces_by_definition(P):
                        if v in face.vertices and w in face.vertices:
                            assert face.facets <= j.facets


def brute_force_minimal_nonfaces(P):
    """Facet sets on no vertex with no such set inside them.  Such sets are
    closed under adding facets, so it is enough to look one facet down; and
    as every face has at most dim facets, a minimal one has at most dim + 1."""
    facets = range(1, P.facet_count + 1)
    nonfaces = {frozenset(S) for k in range(1, min(P.dim + 1, P.facet_count) + 1)
                for S in combinations(facets, k)
                if not any(set(S) <= fs for fs in P.vertices)}
    return sorted((S for S in nonfaces
                   if not any(S - {i} in nonfaces for i in S)), key=sorted)


def edges_by_definition(P):
    """(v, w, shared facets) for v < w sharing dim - 1 facets, in (v, w) order."""
    return [(v, w, P.vertices[v] & P.vertices[w])
            for v, w in combinations(range(P.m), 2)
            if len(P.vertices[v] & P.vertices[w]) == P.dim - 1]


def assert_oracles(P):
    assert list(P.edges()) == edges_by_definition(P)
    assert list(P.minimal_nonfaces()) == brute_force_minimal_nonfaces(P)


class TestMinimalNonfaces:
    def test_triangle(self):
        assert TRIANGLE.minimal_nonfaces() == (frozenset({1, 2, 3}),)

    def test_square(self):
        assert SQUARE.minimal_nonfaces() == (frozenset({1, 3}), frozenset({2, 4}))

    def test_simplex(self):
        assert simplex3().minimal_nonfaces() == (frozenset({1, 2, 3, 4}),)

    def test_interval(self):
        assert INTERVAL.minimal_nonfaces() == (frozenset({1, 2}),)

    def test_brute_force_agreement(self):
        for P in (TRIANGLE, SQUARE, INTERVAL, cube()[0], simplex3()):
            assert list(P.minimal_nonfaces()) == brute_force_minimal_nonfaces(P)


class TestOracles:
    """edges() and minimal_nonfaces() against their definitions."""

    def test_bundled_inputs(self):
        for path in sorted(INPUTS.glob("*.json")):
            P = build_polytope(load_document(path, read_text(path)))
            assert validate_simple(P).ok, path.name
            assert_oracles(P)

    def test_generated(self, perfbench_gen, generated):
        gen = perfbench_gen
        made = [gen.polygon(12, random.Random(12)), gen.truncate(gen.cube(3), 3),
                gen.product(gen.polygon(6, random.Random(6)), gen.cp(2))]
        polytopes = [g.polytope for _, g, _ in generated.values()]
        polytopes += [SimplePolytope(M.dim, M.facets, M.vertices) for M in made]
        for P in polytopes:
            assert validate_simple(P).ok
            assert_oracles(P)


def shuffled_facets(P, rng):
    """P with its facets numbered by a random permutation."""
    perm = list(range(1, P.facet_count + 1))
    rng.shuffle(perm)
    return SimplePolytope(P.dim, P.facet_count,
                          [[perm[i - 1] for i in fs] for fs in P.vertices])


class TestSubsetTable:
    """The subset table gives minimal_nonfaces, and only it builds the table."""

    FAMILIES = {
        "bott5": lambda gen: gen.bott(5, random.Random(5)),
        "cube3-t3": lambda gen: gen.truncate(gen.truncate(gen.truncate(
            gen.cube(3), 2), 5), 0),
        "cp6": lambda gen: gen.cp(6),
        "polygon11": lambda gen: gen.polygon(11, random.Random(11)),
        "polygon16": lambda gen: gen.polygon(16, random.Random(16)),
        "cp1xcp1xcp1": lambda gen: gen.product(gen.product(gen.cp(1), gen.cp(1)), gen.cp(1)),
        "polygon5xcp1": lambda gen: gen.product(gen.polygon(5, random.Random(5)), gen.cp(1)),
        "cube6": lambda gen: gen.cube(6),
        "bott6": lambda gen: gen.bott(6, random.Random(6)),
    }

    @pytest.mark.parametrize("name", FAMILIES)
    def test_oracles(self, perfbench_gen, name):
        M = self.FAMILIES[name](perfbench_gen)
        P = SimplePolytope(M.dim, M.facets, M.vertices)
        for Q in (P, shuffled_facets(P, random.Random(name))):
            assert validate_simple(Q).ok
            assert list(Q.minimal_nonfaces()) == brute_force_minimal_nonfaces(Q)

    def test_unbuilt_by_order_work(self, perfbench_gen, tmp_path):
        """Orders, interpolation and membership leave the table unbuilt (a
        simplex has 2^n subsets at each vertex); facering builds it."""
        M = perfbench_gen.with_height(perfbench_gen.cp(8), random.Random(1))
        doc = tmp_path / "cp8.json"
        doc.write_text(json.dumps(M.document()))
        prep = cli.prepare(doc)
        g, order = prep.graph(), prep.order()
        t = facering.r_vector(g, 1)
        assert facering.interpolate(g, order, t).poly is not None
        tup = tmp_path / "t.json"
        tup.write_text(cli._json_text({"entries": t.entries}))
        for argv in (["interpolate", doc, tup], ["membership", doc, tup]):
            assert cli.main([str(a) for a in argv]) == 0
        assert cli.prepare(doc) is prep
        assert g.polytope._links is None
        assert cli.main(["facering", str(doc)]) == 0
        assert g.polytope._links is not None


CP2_LAMBDA = [[1, 0], [0, 1], [-1, -1]]


class TestValidateCharacteristic:
    def test_cp2(self):
        assert validate_characteristic(TRIANGLE, CP2_LAMBDA).ok

    def test_det_two(self):
        rep = validate_characteristic(TRIANGLE, [[1, 0], [0, 1], [-2, -1]])
        assert not rep.ok
        assert any("{2,3}" in f and "2" in f for f in rep.failures)

    def test_not_primitive(self):
        rep = validate_characteristic(TRIANGLE, [[2, 0], [0, 1], [-1, -1]])
        assert not rep.ok
        assert any("not primitive" in f for f in rep.failures)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-10, 10))
    def test_hirzebruch_any_k(self, k):
        assert validate_characteristic(SQUARE, [[1, 0], [0, 1], [-1, k], [0, -1]]).ok


def eliminate_each(P, lam):
    """Reference validate_characteristic that inverts every vertex block by
    elimination: (failures, [mu(v)] or None)."""
    fails = []
    for i, row in enumerate(lam):
        if not is_primitive(row):
            fails.append(f"row {i + 1} {tuple(row)}: not primitive")
    mu = []
    for fs in P.vertices:
        try:
            mu.append(vertex_dual_basis(lam, fs))
        except NotUnimodular as exc:
            fails.append(f"vertex {fmt_facets(fs)}: |det| = {abs(exc.det)} (expected 1)")
    return fails, (None if fails else mu)


def renumbered(P, lam, rng):
    """(P, lam) with the vertices permuted and the facets renumbered by rng."""
    order = list(range(P.m))
    rng.shuffle(order)
    sigma = list(range(1, P.facet_count + 1))
    rng.shuffle(sigma)
    verts = [[sigma[i - 1] for i in P.vertices[v]] for v in order]
    rows = [None] * P.facet_count
    for i, row in enumerate(lam, 1):
        rows[sigma[i - 1] - 1] = row
    return SimplePolytope(P.dim, P.facet_count, verts), rows


@pytest.fixture
def dual_basis_calls(monkeypatch):
    """The number of lattice.dual_basis calls made through polytope."""
    calls = []
    real = polytope.dual_basis

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(polytope, "dual_basis", counted)
    return calls


def families(gen):
    """{name: (P, lam)} over the cp, cube, bott, polygon, truncation and
    product families of perfbench/gen.py."""
    makers = {
        "cp3": lambda: gen.cp(3),
        "cube4": lambda: gen.cube(4),
        "bott4": lambda: gen.bott(4, random.Random(4)),
        "polygon8": lambda: gen.polygon(8, random.Random(8)),
        "cube3_cut": lambda: gen.truncate(gen.truncate(gen.cube(3), 0), 1),
        "polygon5xcp2": lambda: gen.product(gen.polygon(5, random.Random(5)), gen.cp(2)),
    }
    out = {}
    for name, make in makers.items():
        M = make()
        out[name] = SimplePolytope(M.dim, M.facets, M.vertices), M.lam
    return out


class TestDualBasisWalk:
    """validate_characteristic walks the edge graph from one elimination."""

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_walk_equals_elimination(self, perfbench_gen, dual_basis_calls, seed):
        for name, (P, lam) in families(perfbench_gen).items():
            if seed is not None:
                P, lam = renumbered(P, lam, random.Random(f"{name}:{seed}"))
            rep = validate_characteristic(P, lam)
            assert rep.ok, name
            assert len(dual_basis_calls) == 1, name
            dual_basis_calls.clear()
            for bott in (False, True):
                g = GkmGraph(P, lam, bott=bott)
                for v, fs in enumerate(P.vertices):
                    want = list(vertex_dual_basis(lam, fs).items())
                    assert list(rep.mu[v].items()) == want, (name, v)
                    assert list(g.mu[v].items()) == want, (name, v)
            dual_basis_calls.clear()

    @pytest.mark.parametrize("name", GOOD_INPUTS)
    def test_one_elimination_per_connected_input(self, name, dual_basis_calls):
        path = INPUTS / f"{name}.json"
        doc = load_document(path, read_text(path))
        assert validate_characteristic(build_polytope(doc), doc.lam).ok
        assert len(dual_basis_calls) == 1

    # on SQUARE, with lambda_1 = (1, 0) and lambda_2 = (0, 1) at vertex {1,2}
    @pytest.mark.parametrize("lam, fails, roots", [
        # vertex 0 fails; the walk starts again at vertex 1
        ([[1, 0], [1, 2], [-1, -1], [0, -1]],
         ["vertex {1,2}: |det| = 2 (expected 1)"], 2),
        # lambda_3 = lambda_2: c = 0 at {2,3}
        ([[1, 0], [0, 1], [0, 1], [1, -1]],
         ["vertex {2,3}: |det| = 0 (expected 1)"], 1),
        # |c| = 2 at {2,3}, and at {3,4}
        ([[1, 0], [0, 1], [-2, 1], [0, -1]],
         ["vertex {2,3}: |det| = 2 (expected 1)", "vertex {3,4}: |det| = 2 (expected 1)"], 1),
        # {3,4} is unimodular, but both its neighbours fail: a second root
        ([[1, 0], [0, 1], [2, 1], [3, 2]],
         ["vertex {2,3}: |det| = 2 (expected 1)", "vertex {1,4}: |det| = 2 (expected 1)"], 2),
    ])
    def test_failures_match_elimination(self, lam, fails, roots, dual_basis_calls):
        rep = validate_characteristic(SQUARE, lam)
        assert list(rep.failures) == fails
        assert len(dual_basis_calls) == roots
        assert eliminate_each(SQUARE, lam)[0] == fails

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_blocks_match_elimination(self, data):
        """Random small characteristic matrices, unimodular or not, on
        polytopes of dimension 1 to 3, vertices and facets renumbered."""
        P = data.draw(st.sampled_from([INTERVAL, TRIANGLE, SQUARE, cube()[0], simplex3()]))
        entry = st.integers(-2, 2)
        lam = data.draw(st.lists(st.lists(entry, min_size=P.dim, max_size=P.dim),
                                 min_size=P.facet_count, max_size=P.facet_count))
        P, lam = renumbered(P, lam, random.Random(data.draw(st.integers(0, 2 ** 16))))
        fails, mu = eliminate_each(P, lam)
        rep = validate_characteristic(P, lam)
        assert list(rep.failures) == fails
        if mu is not None:
            assert [list(d.items()) for d in rep.mu] == [list(d.items()) for d in mu]

    def test_graph_without_mu_runs_the_check(self):
        with pytest.raises(NotUnimodular, match=r"vertex \{2,3\}: \|det\| = 2"):
            GkmGraph(SQUARE, [[1, 0], [0, 1], [-2, 1], [0, -1]])

    @pytest.mark.parametrize("vertices, fail", [
        ([[1, 2], [2, 3], [1, 3, 2]], "vertex {1,2,3}: 3 facets, expected 2"),
        ([[1, 2], [2, 3], [3]], "vertex {3}: 1 facets, expected 2"),
        ([[1, 2], [2, 3], [1, 4]], "vertex {1,4}: facet index out of range 1..3"),
        ([[1, 2], [2, 3], [0, 3]], "vertex {0,3}: facet index out of range 1..3"),
    ])
    def test_malformed_vertex_is_a_failure(self, vertices, fail):
        rep = validate_characteristic(SimplePolytope(2, 3, vertices), CP2_LAMBDA)
        assert list(rep.failures) == [fail]

    def test_repeated_facet_set_gets_the_same_basis(self):
        P = SimplePolytope(2, 3, [[1, 2], [1, 2], [2, 3], [1, 3]])
        rep = validate_characteristic(P, CP2_LAMBDA)
        assert [list(d.items()) for d in rep.mu] == \
            [list(vertex_dual_basis(CP2_LAMBDA, fs).items()) for fs in P.vertices]


class TestHeights:
    def test_triangle(self):
        coords = [(0, 0), (1, 0), (0, 1)]
        P = SimplePolytope(2, 3, [[1, 2], [2, 3], [1, 3]])
        vo = vertex_order_from_heights(P, coords, (1, 2))
        assert vo.order == (0, 1, 2)
        assert sorted(vo.ind) == [0, 1, 2]
        assert vo.ind[vo.order[-1]] == 2

    def test_square(self):
        coords = [(0, 0), (1, 0), (1, 1), (0, 1)]
        vo = vertex_order_from_heights(SQUARE, coords, (1, 1))
        assert vo.order[0] == 0 and vo.order[-1] == 2
        assert [vo.ind[v] for v in vo.order] == [0, 1, 1, 2]

    def test_non_generic(self):
        coords = [(0, 0), (1, 0), (1, 1), (0, 1)]
        with pytest.raises(NonGenericHeight):
            vertex_order_from_heights(SQUARE, coords, (1, 0))

    def test_fraction_heights(self):
        coords = [(0, 0), (1, 0), (1, 1), (0, 1)]
        vo = vertex_order_from_heights(SQUARE, coords, (1, Fraction(1, 3)))
        assert vo.order[0] == 0


class TestValidateOrder:
    def test_triangle_all_orders(self):
        import itertools
        for perm in itertools.permutations(range(3)):
            vo = validate_order(TRIANGLE, perm)
            assert sorted(vo.ind) == [0, 1, 2]

    def test_square_bad_order(self):
        with pytest.raises(InvalidOrder) as exc:
            validate_order(SQUARE, [0, 2, 1, 3])
        assert exc.value.witness is not None
        assert exc.value.witness.is_whole

    def test_not_permutation(self):
        with pytest.raises(InvalidOrder):
            validate_order(SQUARE, [0, 0, 1, 2])

    def test_cube_orders(self):
        C, coords = cube()
        vo = vertex_order_from_heights(C, coords, (1, 2, 4))
        assert [vo.ind[v] for v in vo.order] == [0, 1, 1, 2, 1, 2, 2, 3]

    def test_ind_multiset(self):
        # exactly one source (0) and one sink (n) in every validated order
        for P, coords, w in (
            (TRIANGLE, [(0, 0), (1, 0), (0, 1)], (2, 3)),
            (SQUARE, [(0, 0), (1, 0), (1, 1), (0, 1)], (1, 2)),
            (cube()[0], cube()[1], (1, 2, 4)),
        ):
            vo = vertex_order_from_heights(P, coords, w)
            assert vo.ind.count(0) == 1
            assert vo.ind.count(P.dim) == 1
            assert vo.ind[vo.order[0]] == 0
            assert vo.ind[vo.order[-1]] == P.dim


def order_by_definition(P, order):
    """Oracle from the definition, face by face: every face with at least two
    vertices has exactly one vertex with no earlier neighbour in it, and the
    orientation has one sink and one source.  None, or (message, witness)."""
    position = {v: k for k, v in enumerate(order)}
    adj = P.adjacency()
    for face in faces_by_definition(P):
        if len(face.vertices) < 2:
            continue
        minima = [v for v in face.vertices
                  if not any(w in face.vertices and position[w] < position[v] for w in adj[v])]
        if len(minima) != 1:
            names = ", ".join(fmt_facets(P.vertices[v]) for v in minima)
            return f"{face.label()} has {len(minima)} locally minimal vertices ({names})", face
    earlier = [sum(position[w] < position[v] for w in adj[v]) for v in range(P.m)]
    for count, kind in ((earlier.count(P.dim), "sinks"), (earlier.count(0), "sources")):
        if count != 1:
            return f"orientation has {count} {kind} (expected 1)", None
    return None


def assert_stored_faces(P, vo):
    """Each face[v] of a validated order is the face of extra[v], and v is
    its earliest vertex."""
    assert len(vo.face) == P.m
    for v in range(P.m):
        assert vo.face[v] == P.face_of(vo.extra[v]), v
        assert min(vo.face[v].vertices, key=vo.position.__getitem__) == v, v


def random_height_orders(P, coords, rng, count):
    """Validated orders of up to count random height vectors; ties and
    rejected orders are skipped."""
    out = []
    for _ in range(count):
        w = [rng.randint(-9, 9) for _ in range(len(coords[0]))]
        try:
            out.append(vertex_order_from_heights(P, coords, w))
        except (NonGenericHeight, InvalidOrder):
            pass
    return out


def truncated_cube():
    """The 3-cube with the vertex (0,0,0) cut off by the new facet 7."""
    C, coords = cube()
    half = Fraction(1, 2)
    cut = {frozenset({2, 3, 7}): (half, 0, 0), frozenset({1, 3, 7}): (0, half, 0),
           frozenset({1, 2, 7}): (0, 0, half)}
    verts = [sorted(fs) for fs in C.vertices[1:]] + [sorted(fs) for fs in cut]
    return SimplePolytope(3, 7, verts), coords[1:] + list(cut.values())


def hexagon():
    return SimplePolytope(2, 6, [[i, i % 6 + 1] for i in range(1, 7)])


class TestOrderOracle:
    """validate_order, which checks one face per vertex, against the definition."""

    @staticmethod
    def agree(P, order):
        expected = order_by_definition(P, order)
        try:
            vo = validate_order(P, order)
        except InvalidOrder as exc:
            assert expected == (str(exc), exc.witness), order
            return False
        assert expected is None, order
        assert vo.order == tuple(order)
        assert_stored_faces(P, vo)
        return True

    def test_every_permutation(self):
        # every order of a simplex is valid; most orders of a polygon are not
        for P, all_valid in ((TRIANGLE, True), (SQUARE, False), (hexagon(), False),
                             (simplex3(), True)):
            verdicts = [self.agree(P, perm) for perm in permutations(range(P.m))]
            assert any(verdicts) and all(verdicts) == all_valid

    def test_sampled_and_height_orders(self):
        rng = random.Random(5)
        for P, coords in (cube(), truncated_cube()):
            assert validate_simple(P).ok
            verdicts = []
            for _ in range(300):
                order = list(range(P.m))
                rng.shuffle(order)
                verdicts.append(self.agree(P, order))
            for _ in range(300):
                w = [rng.randint(-9, 9) for _ in range(P.dim)]
                h = [sum(a * b for a, b in zip(row, w)) for row in coords]
                order = sorted(range(P.m), key=lambda v: (h[v], v))
                for _ in range(rng.randint(0, 2)):
                    k = rng.randrange(P.m - 1)
                    order[k], order[k + 1] = order[k + 1], order[k]
                verdicts.append(self.agree(P, order))
            assert 0 < sum(verdicts) < len(verdicts)


class TestStoredFace:
    """VertexOrder.face[v] is F_v, the face of extra[v], with v first in it."""

    def test_bundled_inputs(self, documents, orders):
        for name, doc in documents.items():
            P = build_polytope(doc)
            assert_stored_faces(P, orders[name])
            if doc.vertex_coords is not None:
                for vo in random_height_orders(P, doc.vertex_coords, random.Random(name), 20):
                    assert_stored_faces(P, vo)

    def test_generated(self, generated):
        for name, (doc, g, order) in generated.items():
            assert_stored_faces(g.polytope, order)
            orders = random_height_orders(g.polytope, doc.vertex_coords, random.Random(name), 20)
            assert orders, name
            for vo in orders:
                assert_stored_faces(g.polytope, vo)

    def test_random_height_orders(self):
        rng = random.Random(7)
        for P, coords in (cube(), truncated_cube()):
            orders = random_height_orders(P, coords, rng, 100)
            assert len({vo.order for vo in orders}) > 1
            for vo in orders:
                assert_stored_faces(P, vo)

    def test_face_of_once_per_vertex(self, face_of_calls):
        """validate_order calls face_of once per vertex, valid order or not."""
        P, coords = truncated_cube()
        validate_order(P, vertex_order_from_heights(P, coords, (1, 2, 4)).order)
        assert len(face_of_calls) == 2 * P.m
        face_of_calls.clear()
        with pytest.raises(InvalidOrder):
            validate_order(SQUARE, [0, 2, 1, 3])
        assert len(face_of_calls) == SQUARE.m
