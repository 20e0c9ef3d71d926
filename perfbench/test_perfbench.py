"""Tests of the benchmark's own code: generators, checker and tracer.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ALL_SPECS = sorted(set(workloads.OrdinarySweep.SCHEDULE + workloads.InterpRoundtrip.MANIFOLDS
                       + workloads.MembershipMix.WELL_FORMED))


# -- generators --------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_spec_generates_a_valid_manifold(seed):
    rng = random.Random(seed)
    for spec in ALL_SPECS:
        workloads.make(spec, rng, spec)      # make() runs gen.check()


def test_family_sizes():
    rng = random.Random(5)
    assert (gen.cp(4).m, gen.cp(4).facets) == (5, 5)
    assert (gen.bott(4, rng).m, gen.bott(4, rng).facets) == (16, 8)
    assert (gen.polygon(9, rng).m, gen.polygon(9, rng).facets) == (9, 9)
    t = gen.truncate(gen.cube(3), 0)
    assert (t.m, t.facets) == (10, 7)
    assert t.lam[-1] == (1, 1, 1)            # sum of the cut vertex's rows
    p = gen.product(gen.polygon(5, rng), gen.cp(1))
    assert (p.dim, p.m, p.facets) == (3, 10, 7)


def test_check_rejects_broken_documents():
    M = gen.with_height(gen.cp(2), random.Random(0))
    gen.check(M)
    with pytest.raises(gen.GeneratorError, match="det"):
        gen.check(replace(M, lam=((1, 0), (0, 1), (-1, -2))))
    with pytest.raises(gen.GeneratorError, match="primitive"):
        gen.check(replace(M, lam=((1, 0), (0, 2), (-1, -1))))
    with pytest.raises(gen.GeneratorError, match="ties"):
        gen.check(replace(gen.cube(2), height=(1, 0)))


def test_malformed_documents_are_malformed():
    rng = random.Random(3)
    M = workloads.make("bott3", rng, "b")
    doc = workloads.corrupt(M, M.document(), "coords_length", rng)
    assert all(len(row) == M.dim + 1 for row in doc["vertex_coords"])
    doc = workloads.corrupt(M, M.document(), "height_tie", rng)
    h = gen.heights(M, doc["height_vector"])
    assert any(h[a] == h[b] for a, b in M.edges())
    doc = workloads.corrupt(M, M.document(), "broken_order", rng)
    first, second = (v - 1 for v in doc["vertex_order"][:2])
    assert (first, second) not in set(M.edges())   # two sources


def test_inputs_repeat_for_a_seed():
    def files(seed):
        wl = workloads.workload("membership_mix", seed, Path("w"))
        return [op.files for op in wl.cycle(0)]
    assert files(4) == files(4)
    assert files(4) != files(5)


def test_interp_rotates_its_manifolds_every_group():
    wl = workloads.workload("interp_roundtrip", 1, Path("w"))

    def docs(c):
        return {k: v for op in wl.cycle(c) for k, v in op.files.items() if "manifold" in k}
    first = docs(0)
    assert len(first) == len(wl.MANIFOLDS)
    assert not docs(1)                      # the group's documents are already written
    assert docs(wl.GROUP_CYCLES).keys() == first.keys()
    assert docs(wl.GROUP_CYCLES) != first


# -- checker -----------------------------------------------------------------

def test_phi_on_cp2_by_hand():
    M = gen.cp(2)               # vertices {1,2}, {2,3}, {1,3}; lambda e1, e2, -e1-e2
    mu = check.dual_bases(M)
    assert mu == [{1: (1, 0), 2: (0, 1)},
                  {2: (-1, 1), 3: (-1, 0)},
                  {1: (1, -1), 3: (0, -1)}]
    y1 = {(1, 0, 0): 1}
    assert check.phi(M, mu, y1) == [{(1, 0): 1}, {(0, 0): 1}, {(1, -1): 1}]
    P = {(1, 0, 0): 2, (0, 1, 1): -1}      # 2 y1 - y2 y3
    assert check.phi(M, mu, P) == [{(1, 0): 2, (0, 1): -1},
                                   {(0, 0): 2, (-2, 1): -1},
                                   {(1, -1): 2, (0, -1): -1}]
    # (1 - y1)(1 - y2)(1 - y3): the product over the minimal non-face maps to 0
    K = {}
    for e in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
        K[e] = (-1) ** sum(e)
    assert check.phi(M, mu, K) == [{}, {}, {}]


def test_non_member_tuples_change_one_coefficient_sum():
    # every Euler class 1 - e^-u vanishes at t = 1, so all entries of a member
    # share one coefficient sum; add_monomial moves one entry's sum only
    M = gen.cube(2)
    t = check.phi(M, check.dual_bases(M), check.random_face_element(M, random.Random(2)))
    assert len({sum(a.values()) for a in t}) == 1
    bad = check.add_monomial(t, 1, (2, -1), 2)
    assert [sum(a.values()) for a in bad] == [sum(a.values()) + 2 * (v == 1)
                                             for v, a in enumerate(t)]


def test_json_round_trip():
    p = {(1, -2): 3, (0, 0): -1}
    assert check.poly_from_json(check.terms_json(p)) == p
    assert json.loads(json.dumps(check.tuple_json([p])))["entries"][0][0] == \
        {"coeff": -1, "exps": [0, 0]}


# -- tracer ------------------------------------------------------------------

class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_times_of_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and B [5, 7]
    tr = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    a = tr.enter("A")
    b = tr.enter("B")
    c = tr.enter("C")
    tr.exit(c)
    tr.exit(b)
    b = tr.enter("B")
    tr.exit(b)
    tr.exit(a)
    summary = tr.summary()
    assert summary == {"A": (1, 5), "B": (2, 4), "C": (1, 1)}
    assert sum(s for _, s in summary.values()) == 10      # the root's duration


def test_self_times_from_span_tuples():
    names = ["root", "leaf"]
    spans = [(0, 0.0, 4.0, -1, 0), (1, 0.5, 1.5, 0, 0), (1, 2.0, 3.5, 0, 0),
             (0, 5.0, 6.0, -1, 1)]
    assert tracer.self_times(spans, names) == {"root": (2, 2.5), "leaf": (2, 2.5)}


def test_install_patches_from_imports_and_uninstall_restores():
    import quasik.facering as facering
    import quasik.gkm as gkm
    import quasik.laurent as laurent
    original = laurent.substitute_monomial_map
    tr = tracer.Tracer()
    undo = tracer.install(tr)
    try:
        assert gkm.substitute_monomial_map is laurent.substitute_monomial_map
        assert facering.substitute_monomial_map is laurent.substitute_monomial_map
        assert laurent.substitute_monomial_map is not original
        M = gen.with_height(gen.cp(2), random.Random(0))
        P = laurent.LaurentPoly(laurent.face_profile(3), {(1, 0, 0): 2, (0, 1, 1): -1})
        from quasik.documents import document_from_dict, build_polytope
        doc = document_from_dict(M.document())
        g = gkm.GkmGraph(build_polytope(doc), doc.lam)
        facering.phi(g, P)
    finally:
        tracer.uninstall(undo)
    assert laurent.substitute_monomial_map is original
    assert gkm.substitute_monomial_map is original
    summary = tr.summary()
    assert summary["facering.phi"][0] == 1
    assert summary["laurent.substitute_monomial_map"][0] == 3      # one per vertex
    assert tr.counts["laurent.substitute_monomial_map.terms"] == 6
    assert summary["gkm.GkmGraph.__init__"][0] == 1


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
