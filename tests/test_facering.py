import random
from copy import copy
from dataclasses import replace
from functools import partial
from itertools import combinations, combinations_with_replacement
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from quasik.facering import (
    CertificateEntry,
    CertificateFailure,
    InterpolationResult,
    InterpolationStep,
    OrdinaryKModel,
    OrdinaryRankFailure,
    ResidualNonzero,
    _nonface_product,
    _shift,
    basis_certificate,
    constant_tuple,
    interpolate,
    kernel_generators,
    lattice_relations,
    ordinary_rank,
    phi,
    r_vector,
    theta,
)
from conftest import (
    GENERATED,
    decode,
    decoded_rows,
    dense_substitute,
    eliminate,
    encode,
    generated_graphs,
    model_reduce,
    model_terms,
    model_vanishes,
    push_interpolate,
    shift_terms,
    truncated_product,
)
from quasik.documents import build_polytope
from quasik.gkm import FixedPointTuple, GkmGraph, in_gamma, in_w
from quasik.lattice import SparseMat, snf_diagonal
from quasik.harness import (
    MAX_TERMS,
    perturb_one_entry,
    random_character,
    random_face_element,
    random_member_tuple,
)
from quasik.laurent import (
    DimensionMismatch, LaurentPoly, MonomialMap, ProfileMismatch, char_profile, face_profile,
    substitute_monomial_map)
from quasik.polytope import SimplePolytope, fmt_facets, vertex_order_from_heights


# the height order of each graph make() builds
ORDER = {}


def make(name):
    if name == "cp1":
        P = SimplePolytope(1, 2, [[1], [2]])
        lam = [[1], [-1]]
        coords, w = [(0,), (1,)], (1,)
    elif name == "cp2":
        P = SimplePolytope(2, 3, [[1, 2], [1, 3], [2, 3]])
        lam = [[1, 0], [0, 1], [-1, -1]]
        coords, w = [(0, 0), (0, 1), (1, 0)], (1, 2)
    elif name.startswith("h"):
        k = int(name[1:])
        P = SimplePolytope(2, 4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        lam = [[1, 0], [0, 1], [-1, k], [0, -1]]
        coords, w = [(0, 0), (1, 0), (1, 1), (0, 1)], (1, 2)
    elif name == "cube":
        verts = [[1 + 3 * x, 2 + 3 * y, 3 + 3 * z]
                 for z in (0, 1) for y in (0, 1) for x in (0, 1)]
        P = SimplePolytope(3, 6, verts)
        lam = [[1, 0, 0], [0, 1, 0], [0, 0, 1],
               [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
        coords = [(x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)]
        w = (1, 2, 4)
    else:
        raise KeyError(name)
    g = GkmGraph(P, lam)
    ORDER[g] = vertex_order_from_heights(P, coords, w)
    return g


CP1 = make("cp1")
CP2 = make("cp2")
H1 = make("h1")
CUBE = make("cube")


def mono(g, u, c=1):
    return LaurentPoly.char_monomial(g.char_profile, u, c)


def ymono(g, exps, c=1):
    return LaurentPoly.monomial(g.face_profile, exps, c)


def face_polys(g, max_terms=3, bound=2, coeff=3):
    exps = st.tuples(*[st.integers(-bound, bound)] * g.face_profile.nvars)
    return st.dictionaries(exps, st.integers(-coeff, coeff), max_size=max_terms).map(
        lambda d: LaurentPoly(g.face_profile, d))


class TestTheta:
    def test_zero_character(self):
        assert theta(CP2, (0, 0)) == LaurentPoly.one(CP2.face_profile)

    def test_cp2(self):
        assert theta(CP2, (1, 0)) == ymono(CP2, (1, 0, -1))

    def test_cp1(self):
        assert theta(CP1, (1,)) == ymono(CP1, (1, -1))

    def test_character_length_checked(self):
        with pytest.raises(DimensionMismatch, match="character length 3 != 2"):
            theta(CP2, (1, 0, 0))


class TestRVectors:
    def test_cp1(self):
        one = LaurentPoly.one(CP1.char_profile)
        assert r_vector(CP1, 1) == FixedPointTuple(CP1.char_profile, (mono(CP1, (1,)), one))
        assert r_vector(CP1, 2) == FixedPointTuple(CP1.char_profile, (one, mono(CP1, (-1,))))

    def test_off_facet_entries_are_one(self):
        for g in (CP1, CP2, H1, CUBE):
            for i in range(1, g.d + 1):
                r = r_vector(g, i)
                for v in range(g.m):
                    if i not in g.polytope.vertices[v]:
                        assert r[v] == LaurentPoly.one(g.char_profile)
                    else:
                        assert r[v] == mono(g, g.mu[v][i])


class TestPhi:
    def test_cp1_generator(self):
        y1 = LaurentPoly.variable(CP1.face_profile, 0)
        assert phi(CP1, y1) == r_vector(CP1, 1)

    def test_nonface_product_vanishes(self):
        p = kernel_generators(CP1)[0]
        assert phi(CP1, p).is_zero

    def test_character_profile_refused(self):
        """A character-profile polynomial with d variables is not a face-ring
        element, though it has as many exponents: phi and each phi map
        refuse it."""
        for g in (CP2, CUBE):
            wrong = LaurentPoly.variable(char_profile(g.d), 0)
            with pytest.raises(DimensionMismatch):
                phi(g, wrong)
            for M in g.phi_maps:
                with pytest.raises(DimensionMismatch):
                    substitute_monomial_map(wrong, M)

    def test_theta_goes_diagonal(self):
        for g in (CP1, CP2, H1, CUBE):
            u = tuple(range(1, g.n + 1))
            assert phi(g, theta(g, u)) == constant_tuple(g, mono(g, u))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_ring_homomorphism(self, data):
        g = CP2
        f = data.draw(face_polys(g))
        h = data.draw(face_polys(g))
        assert phi(g, f * h) == phi(g, f) * phi(g, h)
        assert phi(g, f + h) == phi(g, f) + phi(g, h)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_image_in_gamma(self, data):
        g = H1
        f = data.draw(face_polys(g))
        img = phi(g, f)
        assert in_gamma(g, img).member
        assert in_w(g, img).member


    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_matches_dense_phi_on_bundled_inputs(self, documents, data):
        """At every vertex, phi is the dense n x d map with column mu_i(v) for
        each facet i of v and 0 for every other facet."""
        for name, doc in documents.items():
            for bott in (False, True):
                g = GkmGraph(build_polytope(doc), doc.lam, bott=bott)
                exps = st.tuples(*[st.integers(-2, 2)] * g.face_profile.nvars)
                P = LaurentPoly(g.face_profile, data.draw(
                    st.dictionaries(exps, st.integers(-3, 3), max_size=4), label=name))
                image = phi(g, P)
                for v in range(g.m):
                    cols = [g.mu[v].get(i, (0,) * g.n) for i in range(1, g.d + 1)]
                    rows = [[c[r] for c in cols] for r in range(g.n)]
                    assert image[v] == dense_substitute(P, rows, g.char_profile), (name, bott, v)


class TestInterpolate:
    def test_cp1_generator(self):
        t = FixedPointTuple(CP1.char_profile,
                            (mono(CP1, (1,)), LaurentPoly.one(CP1.char_profile)))
        res = interpolate(CP1, ORDER[CP1], t)
        assert res.poly == LaurentPoly.variable(CP1.face_profile, 0)

    def test_constant_one(self):
        for g in (CP1, CP2, H1):
            res = interpolate(g, ORDER[g], constant_tuple(g, LaurentPoly.one(g.char_profile)))
            assert res.poly == LaurentPoly.one(g.face_profile)

    def test_tuple_shape(self):
        """A tuple of the wrong length or profile is refused before any step."""
        one = LaurentPoly.one(CP2.char_profile)
        for k in (2, 4):
            with pytest.raises(ValueError) as exc:
                interpolate(CP2, ORDER[CP2], FixedPointTuple(CP2.char_profile, (one,) * k))
            assert type(exc.value) is ValueError
            assert str(exc.value) == f"tuple has {k} entries for 3 fixed points"
        with_z = char_profile(2, bott=True)
        with pytest.raises(ProfileMismatch):
            interpolate(CP2, ORDER[CP2], FixedPointTuple.constant(
                with_z, 3, LaurentPoly.one(with_z)))

    def test_not_in_w(self, documents, orders, generated):
        """interpolate decides membership as in_gamma and in_w do: it returns
        P with phi(P) == t exactly when both accept t, and under a valid
        order rejects every other tuple at the omega_v divisibility check."""
        cases = [(f"{name}{'+z' if bott else ''}",
                  GkmGraph(build_polytope(doc), doc.lam, bott=bott), orders[name])
                 for name, doc in documents.items() for bott in (False, True)]
        cases += [(name, g, order) for name, (_, g, order) in generated.items()]
        seen = set()
        for name, g, order in cases:
            for seed in range(3):
                rng = random.Random(f"{name}:{seed}")
                member = random_member_tuple(rng, g)
                for t in (member, perturb_one_entry(rng, g, member)):
                    expected = in_gamma(g, t).member
                    assert in_w(g, t).member == expected, (name, seed)
                    try:
                        res = interpolate(g, order, t)
                    except ResidualNonzero as exc:
                        assert not expected, (name, seed, str(exc))
                        assert exc.check == "step polynomial not divisible by omega_v", \
                            (name, seed)
                    else:
                        assert expected and phi(g, res.poly) == t, (name, seed)
                    seen.add(expected)
        assert seen == {True, False}

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_roundtrip(self, data):
        for g in (CP2, H1):
            P = data.draw(face_polys(g))
            img = phi(g, P)
            res = interpolate(g, ORDER[g], img)
            assert phi(g, res.poly) == img
            # the defect P - P' is a kernel element
            assert phi(g, P - res.poly).is_zero
            for step in res.steps:
                used = g.polytope.vertices[step.vertex]
                for exps in step.poly.terms:
                    assert all(exps[i] == 0 for i in range(g.d) if i + 1 not in used)


def reference_interpolate(g, order, t):
    """Interpolation without the face-local update: each step's p comes from
    explicit lambda-row pairings at v, phi(p) is subtracted at all m vertices,
    and every processed entry must stay zero."""
    residual = list(t.entries)
    total = LaurentPoly.zero(g.face_profile)
    steps = []
    for pos, v in enumerate(order.order):
        rows = [g.lam_row(i) if i in g.polytope.vertices[v] else (0,) * g.n
                for i in range(1, g.d + 1)]
        p = dense_substitute(residual[v], rows, g.face_profile)
        residual = [a - b for a, b in zip(residual, phi(g, p))]
        total = total + p
        steps.append(InterpolationStep(pos, v, p))
        assert all(residual[u].is_zero for u in order.order[:pos + 1]), (pos, v)
    return InterpolationResult(total, tuple(steps))


class TestInterpolateReference:
    def test_bundled_inputs(self, documents, orders):
        for name, doc in documents.items():
            for bott in (False, True):
                g = GkmGraph(build_polytope(doc), doc.lam, bott=bott)
                for seed in range(3):
                    t = phi(g, random_face_element(random.Random(f"{name}:{seed}"), g))
                    assert interpolate(g, orders[name], t) == \
                        reference_interpolate(g, orders[name], t), (name, bott, seed)

    def test_generated(self, generated):
        for name, (_, g, order) in generated.items():
            for seed in range(2):
                t = phi(g, random_face_element(random.Random(f"{name}:{seed}"), g))
                assert interpolate(g, order, t) == reference_interpolate(g, order, t), \
                    (name, seed)


@pytest.fixture
def substitutions(monkeypatch):
    """The arguments of each substitute_monomial_map call made in facering."""
    import quasik.facering as facering
    calls = []
    real = facering.substitute_monomial_map

    def counted(f, A):
        calls.append((f, A))
        return real(f, A)

    monkeypatch.setattr(facering, "substitute_monomial_map", counted)
    return calls


@pytest.fixture(scope="module")
def push_ladder(perfbench_gen):
    """{name: (graph, order)}: perfbench/gen.py's cp1-cp4, cube2-cube4,
    bott2-bott4, polygon5-polygon7, a cut cube3 and polygon6 x cp2, each
    also with z."""
    gen = perfbench_gen
    makers = {
        **{f"cp{n}": (lambda n=n: gen.cp(n)) for n in (1, 2, 3, 4)},
        **{f"cube{n}": (lambda n=n: gen.cube(n)) for n in (2, 3, 4)},
        **{f"bott{n}": (lambda n=n: gen.bott(n, random.Random(n))) for n in (2, 3, 4)},
        **{f"polygon{k}": (lambda k=k: gen.polygon(k, random.Random(k))) for k in (5, 6, 7)},
        "cube3_cut": lambda: gen.truncate(gen.cube(3), 0),
        "polygon6xcp2": lambda: gen.product(gen.polygon(6, random.Random(6)), gen.cp(2)),
    }
    out = {}
    for name, (_, g, order) in generated_graphs(gen, makers).items():
        out[name] = (g, order)
        out[f"{name}+z"] = (GkmGraph(g.polytope, g.lam, bott=True, mu=g.mu), order)
    return out


def interpolation_outcome(interp, g, order, t):
    """The result, or the step and check that failed."""
    try:
        return interp(g, order, t)
    except ResidualNonzero as exc:
        return (exc.step, exc.check)


class TestInterpolatePushForm:
    """interpolate against push_interpolate, which subtracts phi(p) on F_v."""

    def test_members_and_non_members(self, push_ladder):
        """Identical steps and polynomial on phi(P); on phi(P) with one
        monomial added, the same failed step of the divisibility check."""
        for name, (g, order) in push_ladder.items():
            for seed in range(3):
                rng = random.Random(f"{name}:{seed}")
                member = phi(g, random_face_element(rng, g))
                got = interpolation_outcome(interpolate, g, order, member)
                assert isinstance(got, InterpolationResult), (name, seed, got)
                assert got == push_interpolate(g, order, member), (name, seed)
                other = perturb_one_entry(rng, g, member)
                got = interpolation_outcome(interpolate, g, order, other)
                assert isinstance(got, tuple), (name, seed)
                assert got[1] == "step polynomial not divisible by omega_v", (name, seed)
                assert got == interpolation_outcome(push_interpolate, g, order, other), \
                    (name, seed)

    def test_mutated_orders(self, push_ladder):
        """The same outcome under orders whose order or extra sets are
        wrong, which reach the check that v comes first in F_v."""
        checks = set()
        for name in ("cp3", "cube3+z", "bott3", "cube3_cut", "polygon6"):
            g, order = push_ladder[name]
            t = phi(g, random_face_element(random.Random(name), g))
            for bad in certificate_mutations(g, order):
                got = interpolation_outcome(interpolate, g, bad, t)
                assert got == interpolation_outcome(push_interpolate, g, bad, t), (name, bad)
                if isinstance(got, tuple):
                    checks.add(got[1])
        assert checks == {"step polynomial not divisible by omega_v",
                          "face above v has an earlier vertex"}

    def test_makes_no_substitution(self, generated, substitutions):
        """Each step works in its vertex's local exponents: no monomial map
        is applied to any polynomial."""
        for name in ("cube4", "bott4"):
            _, g, order = generated[name]
            t = phi(g, random_face_element(random.Random(name), g))
            substitutions.clear()
            assert interpolate(g, order, t) == push_interpolate(g, order, t), name
            assert substitutions == [], name


@pytest.fixture(scope="module")
def kernel_graphs(graphs, orders, perfbench_gen):
    """{name: (graph, order)}: the bundled inputs, the GENERATED manifolds and
    a polygon with 22 facets, each also with z."""
    gen = perfbench_gen
    made = generated_graphs(gen, {**{name: partial(make, gen) for name, make in GENERATED.items()},
                                  "polygon22": lambda: gen.polygon(22, random.Random(22))})
    bases = {name: (g, orders[name]) for name, g in graphs.items()}
    bases.update({name: (g, order) for name, (_, g, order) in made.items()})
    out = {}
    for name, (g, order) in bases.items():
        for bott in (False, True):
            out[name + "+z" * bott] = (GkmGraph(g.polytope, g.lam, bott=bott, mu=g.mu), order)
    return out


class TestInterpolateLocalExponents:
    """interpolate, in each vertex's local exponents, against the reference
    forms that substitute through monomial maps: push_interpolate (with the
    same three checks) and reference_interpolate (subtracting phi(p) at
    every vertex)."""

    def test_members(self, kernel_graphs):
        for name, (g, order) in kernel_graphs.items():
            for seed in range(3):
                t = phi(g, random_face_element(random.Random(f"local:{name}:{seed}"), g))
                got = interpolate(g, order, t)
                assert got == push_interpolate(g, order, t), (name, seed)
                assert got == reference_interpolate(g, order, t), (name, seed)

    def test_non_members(self, kernel_graphs):
        for name, (g, order) in kernel_graphs.items():
            rng = random.Random(f"local:{name}")
            for seed in range(4):
                t = perturb_one_entry(rng, g, phi(g, random_face_element(rng, g)))
                got = interpolation_outcome(interpolate, g, order, t)
                assert isinstance(got, tuple), (name, seed)
                assert got == interpolation_outcome(push_interpolate, g, order, t), (name, seed)

    def test_mutated_orders(self, kernel_graphs):
        checks = set()
        for name, (g, order) in kernel_graphs.items():
            t = phi(g, random_face_element(random.Random(f"mutated:{name}"), g))
            for bad in certificate_mutations(g, order):
                got = interpolation_outcome(interpolate, g, bad, t)
                assert got == interpolation_outcome(push_interpolate, g, bad, t), name
                if isinstance(got, tuple):
                    checks.add(got[1])
        assert checks == {"step polynomial not divisible by omega_v",
                          "face above v has an earlier vertex"}


def with_extra(P, order, changes):
    """order with extra[v], and with it face[v], replaced for each v in
    changes, nothing rechecked."""
    extra, face = list(order.extra), list(order.face)
    for v, facets in changes.items():
        extra[v] = frozenset(facets)
        face[v] = P.face_of(facets)
    return replace(order, extra=tuple(extra), face=tuple(face))


def omega(g, e):
    """The certificate entry's basis element, from its facet set."""
    return _nonface_product(g.face_profile, e.extra_facets)


def omega_sum_image(g, order):
    """phi of the sum of the basis omegas, whose step at each v is omega_v != 0."""
    omegas = [omega(g, e) for e in basis_certificate(g, order)]
    t = phi(g, sum(omegas, LaurentPoly.zero(g.face_profile)))
    assert [s.poly for s in interpolate(g, order, t).steps] == omegas
    return t


@pytest.mark.parametrize("g", [H1, CUBE], ids=["h1", "cube3"])
class TestInterpolateCertificate:
    """A wrong extra set makes interpolate raise: its per-step certificate
    does not trust the order."""

    def test_swapped_extra_sets(self, g):
        order, t = ORDER[g], omega_sum_image(g, ORDER[g])
        for v, w in combinations(range(g.m), 2):
            bad = with_extra(g.polytope, order, {v: order.extra[w], w: order.extra[v]})
            with pytest.raises(ResidualNonzero) as exc:
                interpolate(g, bad, t)
            assert exc.value.check in ("step polynomial not divisible by omega_v",
                                       "face above v has an earlier vertex"), (v, w)

    def test_dropped_facet(self, g):
        order, t = ORDER[g], omega_sum_image(g, ORDER[g])
        for v in range(g.m):
            for i in order.extra[v]:
                with pytest.raises(ResidualNonzero) as exc:
                    interpolate(g, with_extra(g.polytope, order, {v: order.extra[v] - {i}}), t)
                assert exc.value.check == "face above v has an earlier vertex"
                assert exc.value.step == order.position[v]

    def test_added_facet(self, g):
        order, t = ORDER[g], omega_sum_image(g, ORDER[g])
        for v in range(g.m):
            for i in g.polytope.vertices[v] - order.extra[v]:
                with pytest.raises(ResidualNonzero) as exc:
                    interpolate(g, with_extra(g.polytope, order, {v: order.extra[v] | {i}}), t)
                assert str(exc.value) == (f"step {order.position[v] + 1}: "
                                          "step polynomial not divisible by omega_v")

    def test_phi_maps_not_inverse_to_step_maps(self, g):
        """phi maps of -Lambda undo no vertex's lambda rows: the first step
        fails, though the other two checks would pass."""
        order = ORDER[g]
        t = omega_sum_image(g, order)
        bad = GkmGraph(g.polytope, g.lam)
        bad.phi_maps = GkmGraph(g.polytope, [[-x for x in row] for row in g.lam]).phi_maps
        with pytest.raises(ResidualNonzero) as exc:
            interpolate(bad, order, t)
        assert str(exc.value) == "step 1: residual at v nonzero"

    def test_faulty_phi_map_fails_at_a_zero_entry(self, g):
        """Every fault of phi_map_faults fails the first check at its vertex's
        step, though the entry there is 0; checking only the entry, as
        push_interpolate does, lets each of them through."""
        order = ORDER[g]
        last = basis_certificate(g, order)[-1]
        t = phi(g, omega(g, last))      # 0 at every vertex but the last
        faults = 0
        for kind, v, bad, _ in phi_map_faults(g, order):
            if v == last.vertex:
                continue
            assert t[v].is_zero
            with pytest.raises(ResidualNonzero) as exc:
                interpolate(bad, order, t)
            assert (exc.value.step, exc.value.check) == \
                (order.position[v], "residual at v nonzero"), (kind, v)
            assert push_interpolate(bad, order, t) == interpolate(g, order, t), (kind, v)
            faults += 1
        assert faults


class TestKernel:
    def test_counts(self):
        assert len(kernel_generators(CP1)) == 1
        assert len(kernel_generators(CP2)) == 1
        assert len(kernel_generators(H1)) == 2
        assert len(kernel_generators(CUBE)) == 3

    def test_all_phi_zero(self):
        for g in (CP1, CP2, H1, CUBE):
            for gen in kernel_generators(g):
                assert phi(g, gen).is_zero


class TestCertificate:
    def test_sizes_match_indices(self):
        for g in (CP1, CP2, H1, CUBE):
            entries = basis_certificate(g, ORDER[g])
            assert len(entries) == g.m
            for e in entries:
                assert len(e.extra_facets) == ORDER[g].ind[e.vertex]
                assert not phi(g, omega(g, e))[e.vertex].is_zero

    def test_cp2_pattern(self):
        sizes = [len(e.extra_facets) for e in basis_certificate(CP2, ORDER[CP2])]
        assert sizes == [0, 1, 2]

    def test_square_pattern(self):
        sizes = [len(e.extra_facets) for e in basis_certificate(H1, ORDER[H1])]
        assert sizes == [0, 1, 1, 2]

    def test_first_entry_is_one(self):
        for g in (CP1, CP2, H1, CUBE):
            e0 = basis_certificate(g, ORDER[g])[0]
            assert omega(g, e0) == LaurentPoly.one(g.face_profile)

    def test_strict_triangularity(self):
        for g in (CP1, CP2, H1, CUBE):
            order = ORDER[g].order
            for e in basis_certificate(g, ORDER[g]):
                img = phi(g, omega(g, e))
                for s in range(e.position):
                    assert img[order[s]].is_zero


class TestPresentations:
    def test_cp1_ordinary(self):
        assert [p.text() for p in kernel_generators(CP1)] == ["1 - y2 - y1 + y1*y2"]
        assert [p.text() for p in lattice_relations(CP1)] == ["-1 + y1*y2^-1"]

    def test_lattice_relations_die_under_elimination(self):
        for g in (CP1, CP2, H1, CUBE):
            for rel in lattice_relations(g):
                assert eliminate(g, rel).is_zero


class TestOrdinaryRank:
    def test_ranks(self, graphs):
        expected = {"cp1": 2, "cp2": 3, "cp3": 4, "square_h1": 4, "cube": 8}
        for name, g in graphs.items():
            res = ordinary_rank(g)
            assert (res.degree, res.rank, res.torsion_free) == (g.n, g.m, True), name
            assert res.rank == expected.get(name, g.m), name

    def test_violated_certificate_raises(self, short_rank):
        with pytest.raises(OrdinaryRankFailure, match="rank 2, expected a free module of rank 3"):
            ordinary_rank(CP2)

    def test_hirzebruch_all_k(self):
        for k in (0, 1, 2, 3):
            g = make(f"h{k}")
            res = ordinary_rank(g)
            assert (res.rank, res.torsion_free) == (4, True)

    def test_truncation_model_cross_check(self):
        # the ordinary ring of projective space is Z[y]/(1-y)^{n+1}
        for g in (CP1, CP2):
            # at degree n a degree-(n+1) product is truncated away unseen, so
            # its vanishing is checked against the relations one degree up
            res = ordinary_rank(g)
            above = OrdinaryKModel(g, g.n + 1)
            surv = res.survivors[0]
            one_minus = (LaurentPoly.one(g.face_profile)
                         - LaurentPoly.variable(g.face_profile, surv - 1))
            assert not model_vanishes(res, one_minus ** g.n)
            assert not model_vanishes(above, one_minus ** g.n)
            assert any(model_reduce(above, one_minus ** (g.n + 1)))
            assert model_vanishes(above, one_minus ** (g.n + 1))

    def test_nonface_products_vanish_in_model(self):
        res = ordinary_rank(H1)
        for gen in kernel_generators(H1):
            assert model_vanishes(res, gen)


def coded_shift(model, terms):
    """facering._shift at the model's degree and base, extended linearly to
    {exponents: coeff}: each code decoded (and its degree checked against
    the decoded exponents), zeros dropped."""
    out = {}
    for exp, c in terms.items():
        for code, deg, v in _shift(exp, model.degree, model.base):
            e = decode(model, code)
            assert sum(e) == deg and encode(model, e) == code
            out[e] = out.get(e, 0) + c * v
    return {e: c for e, c in out.items() if c}


class TestShift:
    """y = 1 + x, truncated above the model's degree and extended linearly
    from the coded _shift of one monomial, is a ring map and equals the
    tuple expansion shift_terms."""

    MODEL = OrdinaryKModel(CUBE, CUBE.n)
    PROFILE = face_profile(len(MODEL.survivors))

    def polys(self):
        exps = st.tuples(*[st.integers(-3, 3)] * self.PROFILE.nvars)
        return st.dictionaries(exps, st.integers(-4, 4), max_size=4).map(
            lambda d: LaurentPoly(self.PROFILE, d))

    def shift(self, p):
        return coded_shift(self.MODEL, p.terms)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_map(self, data):
        p, q = data.draw(self.polys()), data.draw(self.polys())
        shift, cap = self.shift, self.MODEL.degree
        assert shift(p) == shift_terms(p.terms, cap)
        assert shift(p * q) == truncated_product(shift(p), shift(q), cap)
        total = dict(shift(p))
        for e, c in shift(q).items():
            total[e] = total.get(e, 0) + c
        assert shift(p + q) == {e: c for e, c in total.items() if c}

    def test_variables(self):
        shift, cap = self.shift, self.MODEL.degree
        one = (0,) * self.PROFILE.nvars
        for j in range(self.PROFILE.nvars):
            y = LaurentPoly.variable(self.PROFILE, j)
            x = tuple(int(i == j) for i in range(self.PROFILE.nvars))
            assert shift(y) == {one: 1, x: 1}
            # 1/(1 + x) = sum (-x)^k, truncated
            assert shift(y ** -1) == {tuple(k * a for a in x): (-1) ** k
                                      for k in range(cap + 1)}
            assert truncated_product(shift(y ** -1), shift(y), cap) == {one: 1}
            assert shift(y ** -1 * y) == {one: 1}

    @pytest.mark.parametrize("nvars, degree", [(0, 0), (0, 3), (1, 4), (2, 0), (3, 3), (4, 5)])
    def test_monomials(self, nvars, degree):
        """One layer of codes per degree, decoding to the exponent tuples of
        that degree in combinations_with_replacement order."""
        layers = OrdinaryKModel._monomials(nvars, degree)
        shape = SimpleNamespace(survivors=range(nvars), degree=degree)
        assert len(layers) == degree + 1
        for d, layer in enumerate(layers):
            assert [decode(shape, c) for c in layer] == [
                tuple(combo.count(j) for j in range(nvars))
                for combo in combinations_with_replacement(range(nvars), d)]
        codes = [c for layer in layers for c in layer]
        assert len(codes) == len(set(codes)) == comb(nvars + degree, degree)


class TestBottVariable:
    def test_full_pipeline_with_bott(self):
        P = SimplePolytope(2, 3, [[1, 2], [1, 3], [2, 3]])
        order = vertex_order_from_heights(P, [(0, 0), (0, 1), (1, 0)], (1, 2))
        g = GkmGraph(P, [[1, 0], [0, 1], [-1, -1]], bott=True)
        z = LaurentPoly.variable(g.face_profile, g.d)
        y1 = LaurentPoly.variable(g.face_profile, 0)
        elem = z * y1 - 2 * z ** -1 + theta(g, (1, -1))
        img = phi(g, elem)
        assert in_gamma(g, img).member and in_w(g, img).member
        res = interpolate(g, order, img)
        assert phi(g, res.poly) == img
        rank = ordinary_rank(g)
        assert (rank.rank, rank.torsion_free) == (3, True)
        for gen in kernel_generators(g):
            assert phi(g, gen).is_zero
        basis_certificate(g, order)


# -- oracles for the closed-form products ------------------------------------

def multiplied_product(profile, facets):
    """prod(1 - y_k) multiplied out one factor at a time."""
    p = LaurentPoly.one(profile)
    for k in sorted(facets):
        p = p * (LaurentPoly.one(profile) - LaurentPoly.variable(profile, k - 1))
    return p


def multiplied_euler_product(g, characters):
    """prod(1 - e^u) over the characters, multiplied out one factor at a time."""
    p = LaurentPoly.one(g.char_profile)
    for u in characters:
        p = p * (1 - mono(g, u))
    return p


def reference_member_tuple(rng, g):
    """random_member_tuple's draws, combined as r-vector products raised to
    their exponents entry by entry, times a diagonal monomial tuple."""
    total = None
    for _ in range(rng.randint(1, MAX_TERMS)):
        u = random_character(rng, g.n)
        eps = rng.choice([1, -1, 2, -2])
        part = constant_tuple(g, mono(g, u, eps))
        for i in range(1, g.d + 1):
            a = rng.randint(-1, 2)
            if a:
                r = r_vector(g, i)
                part = part * FixedPointTuple(r.profile, tuple(x ** a for x in r.entries))
        total = part if total is None else total + part
    return total


def reference_certificate(g, order):
    """The certificate with phi(omega) evaluated at every vertex: omega is
    multiplied out, and vanishing at earlier positions is read off the
    images rather than the facet sets."""
    P = g.polytope
    entries = []
    for pos, v in enumerate(order.order):
        extra = tuple(sorted(order.extra[v]))
        if len(extra) != order.ind[v]:
            raise CertificateFailure(
                f"vertex {fmt_facets(P.vertices[v])}: {len(extra)} extra facets "
                f"for index {order.ind[v]}", pos)
        omega = multiplied_product(g.face_profile, extra)
        img = phi(g, omega)
        for s in range(pos):
            if not img[order.order[s]].is_zero:
                raise CertificateFailure(
                    f"phi(omega_{pos + 1}) nonzero at earlier position {s + 1}",
                    pos, s)
        expected = multiplied_euler_product(g, [g.mu[v][i] for i in extra])
        if img[v] != expected or img[v].is_zero:
            raise CertificateFailure(
                f"diagonal value at position {pos + 1} is not the Euler-class product",
                pos, pos)
        entries.append(CertificateEntry(pos, v, extra))
    return tuple(entries)


def outcome(certify, g, order):
    """The entries, or the raised exception's type, message, position and entry."""
    try:
        return certify(g, order)
    except CertificateFailure as exc:
        return (CertificateFailure, str(exc), exc.position, exc.entry)
    except Exception as exc:
        return (type(exc), str(exc))


def reference_rows(model):
    """(S, row) for every row of the model, killed ones included, built from
    the generic expansion of each multiplied non-face product S, every
    monomial beta tried, keyed by exponent tuples."""
    g = model.graph
    rows = []
    for S in g.polytope.minimal_nonfaces():
        r = model_terms(model, multiplied_product(g.face_profile, S))
        for beta in map(partial(decode, model), model.monomials):
            room = model.degree - sum(beta)
            row = {tuple(a + b for a, b in zip(e, beta)): c
                   for e, c in r.items() if sum(e) <= room}
            if row:
                rows.append((S, row))
    return rows


def full_rows(model):
    """(S, row) for every row r_S * x^beta of the model, killed ones
    included, keyed by codes: each non-face product multiplied out of its
    truncated factors (_nonface_terms), shifted by every monomial beta it
    leaves a term for, and no column dropped."""
    layers = OrdinaryKModel._monomials(len(model.survivors), model.degree)
    rows = []
    for S in model.graph.polytope.minimal_nonfaces():
        terms = model._nonface_terms(S)
        for room, betas in zip(range(model.degree, -1, -1), layers):
            kept = [(e, c) for e, deg, c in terms if deg <= room]
            rows.extend((S, {e + beta: c for e, c in kept}) for beta in betas if kept)
    return rows


def split_rows(model, rows):
    """(killed, reduced) from a model's full rows: the rows of the non-faces
    off vertex 0, each asserted to be the single entry (-1)^|S| that
    prod(1 - y_s) = (-1)^|S| x^S gives, name the killed columns; every other
    row with those columns dropped, and left out once empty, is reduced."""
    base0 = model.graph.polytope.vertices[0]
    killed = set()
    for S, row in rows:
        if S.isdisjoint(base0):
            ((col, c),) = row.items()
            assert c == (-1) ** len(S), (S, row)
            killed.add(col)
    reduced = [{e: c for e, c in row.items() if e not in killed}
               for S, row in rows if not S.isdisjoint(base0)]
    return killed, [row for row in reduced if row]


def row_multiset(rows):
    """Rows as a sorted list of their sorted items; an (S, row) pair keeps S."""
    return sorted((sorted(r[0]), sorted(r[1].items())) if type(r) is tuple else sorted(r.items())
                  for r in rows)


@pytest.fixture(scope="module")
def oracle_graphs(documents, orders, generated, perfbench_gen):
    """{name: (graph, order)}: the bundled inputs with and without z, the
    generated fixture, polygon12 and a cube3 cut at three vertices."""
    gen = perfbench_gen
    out = {}
    for name, doc in documents.items():
        for bott in (False, True):
            g = GkmGraph(build_polytope(doc), doc.lam, bott=bott)
            out[f"{name}{'_bott' if bott else ''}"] = (g, orders[name])
    extra = generated_graphs(gen, {
        "polygon12": lambda: gen.polygon(12, random.Random(12)),
        "cube3_cut3": lambda: gen.truncate(gen.truncate(gen.truncate(gen.cube(3), 0), 1), 2)})
    for name, (_, g, order) in {**generated, **extra}.items():
        out[name] = (g, order)
    return out


def certificate_mutations(g, order):
    """Orders whose order (and position), extra (and face) or ind is
    changed with nothing rechecked."""
    P, m = g.polytope, len(order.order)
    first = P.vertices[order.order[0]]
    for v in order.order[1:]:
        # extra[v] is all of the first vertex's facets
        ind = list(order.ind)
        ind[v] = len(first)
        yield replace(with_extra(P, order, {v: first}), ind=tuple(ind))
    for a in range(m - 1):
        swapped, position = list(order.order), list(order.position)
        v, w = swapped[a], swapped[a + 1]
        swapped[a], swapped[a + 1] = w, v
        position[v], position[w] = a + 1, a
        yield replace(order, order=tuple(swapped), position=tuple(position))
    for v in range(m):
        for i in order.extra[v]:
            yield with_extra(P, order, {v: order.extra[v] - {i}})
            ind = list(order.ind)
            ind[v] -= 1
            yield replace(with_extra(P, order, {v: order.extra[v] - {i}}), ind=tuple(ind))
    for v, w in combinations(range(m), 2):
        yield with_extra(P, order, {v: order.extra[w], w: order.extra[v]})


def with_phi_map(g, v, A):
    """A copy of g whose phi map at v is A, nothing rechecked; the copy
    drops the vertex steps built from g's phi maps and builds its own."""
    bad = copy(g)
    vars(bad).pop("vertex_steps", None)
    bad.phi_maps = g.phi_maps[:v] + (A,) + g.phi_maps[v + 1:]
    return bad


def with_block(g, v, block):
    """with_phi_map of v's own map with its block replaced."""
    A = g.phi_maps[v]
    return with_phi_map(g, v, MonomialMap(A.src, A.dst, A.source, A.target, block))


def phi_map_faults(g, order):
    """(kind, v, graph, diagonal) per fault of v's phi map, diagonal telling
    whether it changes the multiset of images of the y_k over extra[v],
    which is all the certificate's diagonal reads: two block columns
    swapped (it does when exactly one is in extra[v]), column b copied onto
    column a (when a is in extra[v]; with b there too, an image repeats),
    one column doubled (when it is in extra[v]), and the map of a
    neighbour w, an earlier one (always: v's facet off the edge is in
    extra[v], and w's map sends it to 1) or a later one (when w's map does
    not send the y_k over extra[v] to the mu_k(v))."""
    zero = (0,) * g.n
    for v in range(g.m):
        block, extra = g.phi_maps[v].block, order.extra[v]
        facets = [i + 1 for i in g.phi_maps[v].source]
        for a, b in combinations(range(len(facets)), 2):
            swapped = [r[:a] + (r[b],) + r[a + 1:b] + (r[a],) + r[b + 1:] for r in block]
            yield ("swap", v, with_block(g, v, swapped),
                   (facets[a] in extra) != (facets[b] in extra))
            for to, frm in ((a, b), (b, a)):
                copied = [r[:to] + (r[frm],) + r[to + 1:] for r in block]
                yield "copy", v, with_block(g, v, copied), facets[to] in extra
        for c, i in enumerate(facets):
            doubled = [r[:c] + (2 * r[c],) + r[c + 1:] for r in block]
            yield "double", v, with_block(g, v, doubled), i in extra
    for e in g.edges:
        for v, w in ((e.v, e.w), (e.w, e.v)):
            bad = with_phi_map(g, v, g.phi_maps[w])
            if order.position[w] < order.position[v]:
                yield "neighbour", v, bad, True
            else:
                images = sorted(g.mu[w].get(k, zero) for k in order.extra[v])
                yield "later", v, bad, images != sorted(g.mu[v][k] for k in order.extra[v])


class TestCertificateOracle:
    def test_matches_all_vertex_certificate(self, oracle_graphs):
        for name, (g, order) in oracle_graphs.items():
            assert basis_certificate(g, order) == reference_certificate(g, order), name

    def test_mutated_orders_fail_alike(self, oracle_graphs):
        """Same exception, message, position and entry as the reference, on
        mutations that reach the order checks.  Where an extra facet is off
        its vertex, the reference cannot read mu_i there (KeyError), and the
        certificate fails that vertex's diagonal from the facet sets."""
        kinds = set()
        for name, (g, order) in oracle_graphs.items():
            for bad in certificate_mutations(g, order):
                got = outcome(basis_certificate, g, bad)
                want = outcome(reference_certificate, g, bad)
                if want[0] is KeyError:
                    pos = next(p for p, v in enumerate(bad.order)
                               if not bad.extra[v] <= g.polytope.vertices[v])
                    want = (CertificateFailure, f"diagonal value at position {pos + 1} is not "
                            "the Euler-class product", pos, pos)
                assert got == want, (name, bad)
                if isinstance(got, tuple) and got[0] is CertificateFailure:
                    kinds.add(next(k for k in ("earlier", "diagonal", "extra") if k in got[1]))
        assert kinds == {"extra", "earlier", "diagonal"}

    def test_bad_phi_maps_fail(self, oracle_graphs):
        """Every faulty phi map fails basis_certificate at its vertex, in the
        check of the map against the dual basis: the maps of -Lambda
        everywhere, and at each vertex in turn each fault of phi_map_faults.
        The reference, which evaluates every map, fails each fault that
        reaches the vertex's diagonal there, fails each later neighbour's
        map at a vanishing check, and passes the others, which keep every
        diagonal and vanishing pattern."""
        failed = set()
        for name, (g, order) in oracle_graphs.items():
            if g.m < 2:
                continue
            bad = GkmGraph(g.polytope, g.lam, bott=g.bott)
            bad.phi_maps = GkmGraph(g.polytope, [[-x for x in row] for row in g.lam],
                                    bott=g.bott).phi_maps
            assert outcome(basis_certificate, bad, order) == (
                CertificateFailure, "phi map at position 1 is not the dual basis of its vertex",
                0, 0), name
            assert outcome(reference_certificate, bad, order) == (
                CertificateFailure, "diagonal value at position 2 is not the Euler-class product",
                1, 1), name
            good = basis_certificate(g, order)
            for kind, v, bad, diagonal in phi_map_faults(g, order):
                pos = order.position[v]
                assert outcome(basis_certificate, bad, order) == (
                    CertificateFailure, f"phi map at position {pos + 1} is not the dual basis "
                    "of its vertex", pos, pos), (name, kind, v)
                ref = outcome(reference_certificate, bad, order)
                if diagonal:
                    assert ref == (CertificateFailure, f"diagonal value at position {pos + 1} "
                                   "is not the Euler-class product", pos, pos), (name, kind, v)
                elif kind == "later":
                    assert ref[0] is CertificateFailure and "earlier position" in ref[1]
                else:
                    assert ref == good, (name, kind, v)
                failed.add((kind, diagonal, g.bott))
        assert failed == {(kind, diagonal, bott) for bott in (0, 1)
                          for kind, diagonal in [("neighbour", True)] + [
                              (kind, diagonal) for kind in ("swap", "copy", "double", "later")
                              for diagonal in (True, False)]}

    def test_cube_later_neighbour_maps_fail(self, oracle_graphs):
        """The cube's 12 later-neighbour maps keep their vertex's diagonal;
        each fails both certificates, basis_certificate at the map check."""
        g, order = oracle_graphs["cube"]
        later = [(v, bad) for kind, v, bad, diagonal in phi_map_faults(g, order)
                 if kind == "later" and not diagonal]
        assert len(later) == 12
        for v, bad in later:
            pos = order.position[v]
            assert outcome(basis_certificate, bad, order)[1:] == (
                f"phi map at position {pos + 1} is not the dual basis of its vertex", pos, pos)
            assert outcome(reference_certificate, bad, order)[0] is CertificateFailure

    def test_no_face_of_calls(self, oracle_graphs, face_of_calls):
        """interpolate and the certificate read the order's stored faces."""
        for name, (g, order) in oracle_graphs.items():
            t = phi(g, random_face_element(random.Random(name), g))
            basis_certificate(g, order)
            interpolate(g, order, t)
        assert face_of_calls == []

    def test_maps_nothing(self, oracle_graphs, substitutions):
        """The certificate reads the maps' blocks and the facet sets; it
        substitutes no polynomial."""
        for name, (g, order) in oracle_graphs.items():
            basis_certificate(g, order)
        assert substitutions == []


class TestClosedForms:
    def test_nonface_product_matches_multiplied(self, oracle_graphs):
        for name, (g, order) in oracle_graphs.items():
            sets = list(g.polytope.minimal_nonfaces()) + list(order.extra)
            sets += [range(1, k + 1) for k in range(min(g.d, 5) + 1)]
            for S in sets:
                assert _nonface_product(g.face_profile, frozenset(S)) == \
                    multiplied_product(g.face_profile, S), (name, S)

    def test_random_member_is_the_r_vector_combination(self, documents):
        """Same draws in the same order, and the same tuple as the r-vector
        products, on the bundled inputs with and without z."""
        for name, doc in documents.items():
            for bott in (False, True):
                g = GkmGraph(build_polytope(doc), doc.lam, bott=bott)
                for seed in range(5):
                    got, want = random.Random(seed), random.Random(seed)
                    assert random_member_tuple(got, g) == reference_member_tuple(want, g), \
                        (name, bott, seed)
                    assert got.random() == want.random(), (name, bott, seed)

    def test_r_vector_is_phi_of_the_generator(self, oracle_graphs):
        for name, (g, _) in oracle_graphs.items():
            for i in range(1, g.d + 1):
                assert r_vector(g, i) == phi(g, LaurentPoly.variable(g.face_profile, i - 1)), \
                    (name, i)

    def test_factored_terms_match_generic_expansion(self, oracle_graphs):
        """At degree n - 1, n and n + 1, each non-face product multiplied out
        of truncated factors equals the reference expansion (model_terms)
        of the multiplied product, each term's degree that of its code."""
        for name, (g, _) in oracle_graphs.items():
            for degree in (g.n - 1, g.n, g.n + 1):
                model = OrdinaryKModel(g, degree)
                for S in g.polytope.minimal_nonfaces():
                    terms = model._nonface_terms(S)
                    assert len({e for e, _, _ in terms}) == len(terms), (name, degree, S)
                    assert all(c and deg == sum(decode(model, e)) for e, deg, c in terms)
                    assert {decode(model, e): c for e, _, c in terms} == \
                        model_terms(model, multiplied_product(g.face_profile, S)), \
                        (name, degree, S)

    def test_rows_match_generic_expansion(self, oracle_graphs):
        """The full rows, one per non-face and beta with a term left, are
        the generic expansion's; the unit rows of the non-faces off vertex
        0 kill exactly model.killed, every other row is kept with the killed
        columns dropped, and row_count counts every row."""
        for name, (g, _) in oracle_graphs.items():
            for degree in (g.n, g.n + 1):
                model = OrdinaryKModel(g, degree)
                ref = reference_rows(model)
                full = [(S, {decode(model, e): c for e, c in row.items()})
                        for S, row in full_rows(model)]
                assert row_multiset(full) == row_multiset(ref), (name, degree)
                killed, reduced = split_rows(model, ref)
                assert {decode(model, e) for e in model.killed} == killed, (name, degree)
                assert row_multiset(decoded_rows(model)) == row_multiset(reduced), \
                    (name, degree)
                assert model.row_count == len(ref), (name, degree)


class TestKilledColumns:
    """A non-face product of survivors only is one monomial, so its rows
    are unit pivots that the model counts and records without building."""

    MAKERS = {
        "bott5": lambda gen: gen.bott(5, random.Random(5)),
        "bott7": lambda gen: gen.bott(7, random.Random(7)),
        "cube3_cut3": lambda gen: gen.truncate(gen.truncate(gen.truncate(gen.cube(3), 0), 1), 2),
        "polygon11": lambda gen: gen.polygon(11, random.Random(11)),
        "poly80": lambda gen: gen.polygon(80, random.Random(80)),
        "cp6": lambda gen: gen.cp(6),
    }

    def test_same_answer_as_full_rows(self, perfbench_gen):
        """The Smith form of every row gives the rank and torsion that the
        killed columns and the Smith form of the rows left give; Bott
        towers and CP^n kill nothing, and stats counts every row."""
        gen = perfbench_gen
        graphs = generated_graphs(gen, {k: partial(make, gen) for k, make in self.MAKERS.items()})
        for name, (_, g, _) in graphs.items():
            model = ordinary_rank(g)
            rows = full_rows(model)
            diag = snf_diagonal(SparseMat(len(model.monomials), [row for _, row in rows]))
            factors = sorted(d for d in diag if d)
            assert (model.rank, model.torsion) == \
                (len(model.monomials) - len(factors), tuple(d for d in factors if d != 1)), name
            killed, reduced = split_rows(model, rows)
            assert model.killed == killed and len(model.rows) == len(reduced), name
            assert bool(killed) == (name in ("cube3_cut3", "polygon11", "poly80")), name
            assert model.row_count == len(rows), name


class TestIntegerCodes:
    """The ordinary model keys each monomial by sum of e_j * (degree + 1)^j."""

    def test_monomial_codes_decode(self, oracle_graphs):
        """Distinct, and decoding to the exponent tuples of degree <= degree,
        lowest degree first, each degree in combinations_with_replacement
        order."""
        for name, (g, _) in oracle_graphs.items():
            for degree in (g.n, g.n + 1):
                model = OrdinaryKModel(g, degree)
                nvars = len(model.survivors)
                assert len(set(model.monomials)) == len(model.monomials), (name, degree)
                assert [decode(model, c) for c in model.monomials] == [
                    tuple(combo.count(j) for j in range(nvars))
                    for d in range(degree + 1)
                    for combo in combinations_with_replacement(range(nvars), d)], (name, degree)
                assert all(encode(model, decode(model, c)) == c for c in model.monomials)

    def test_row_keys_are_monomials(self, oracle_graphs):
        """Every row key lies below base^nvars, so decoding reads all of it,
        and decodes to a monomial of degree <= degree: a column of the
        model, and not a killed one, as are the killed columns' codes."""
        for name, (g, _) in oracle_graphs.items():
            for degree in (g.n, g.n + 1):
                model = OrdinaryKModel(g, degree)
                top = (degree + 1) ** len(model.survivors)
                columns = set(model.monomials)
                assert model.killed <= columns, (name, degree)
                for row in model.rows:
                    for e in row:
                        assert 0 <= e < top and sum(decode(model, e)) <= degree, (name, e)
                        assert e in columns and e not in model.killed, (name, e)

    # rank, torsion, columns and rows (every row counted) of the degree-n
    # model before its monomials were coded as ints, then the killed
    # columns and the rows and nonzeros left for the Smith form
    SIZES = {"bott7": (128, (), 3432, 5544, 0, 5544, 45226),
             "bott8": (256, (), 12870, 24024, 0, 24024, 180972),
             "cube9": (512, (), 48620, 102960, 0, 102960, 102960),
             "poly80": (80, (), 3160, 3080, 2926, 154, 457)}

    def test_large_models_unchanged(self, perfbench_gen):
        gen = perfbench_gen
        graphs = generated_graphs(gen, {
            "bott7": lambda: gen.bott(7, random.Random(7)),
            "bott8": lambda: gen.bott(8, random.Random(8)),
            "cube9": lambda: gen.cube(9),
            "poly80": lambda: gen.polygon(80, random.Random(80))})
        for name, (_, g, _) in graphs.items():
            model = ordinary_rank(g)
            assert (model.rank, model.torsion, len(model.monomials), model.row_count,
                    len(model.killed), len(model.rows), sum(map(len, model.rows))) == \
                self.SIZES[name], name
