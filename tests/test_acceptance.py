"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <n> (<name>): PASS|FAIL` line (visible
with `pytest -s` or `-rA`) and fails the pytest run on any violation.  All
checks are exact; the only tolerances are the stated wall-clock limits.
"""

import time

from quasik.cli import main
from quasik.documents import build_polytope, load_document, read_text
from quasik.facering import (
    OrdinaryKModel,
    _nonface_product,
    basis_certificate,
    kernel_generators,
    ordinary_rank,
    phi,
)
from quasik.gkm import euler_coprimality_check
from quasik.harness import (
    suite_gamma_w_agreement,
    suite_interpolation,
    suite_phi_homomorphism,
)
from quasik.lattice import vec_gcd
from quasik.laurent import LaurentPoly
from quasik.polytope import validate_characteristic, validate_simple

from conftest import GOOD_INPUTS, input_path, model_reduce, model_vanishes

SEED = 1
EXPECTED_RANK = {"cp1": 2, "cp2": 3, "cp3": 4, "square_h0": 4, "square_h1": 4,
                 "square_h2": 4, "square_h3": 4, "cube": 8}


def _criterion(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures[:5])


def test_criterion_1_validation():
    failures = []
    for name in GOOD_INPUTS:
        doc = load_document(input_path(name), read_text(input_path(name)))
        P = build_polytope(doc)
        start = time.perf_counter()
        if not validate_simple(P).ok:
            failures.append(f"{name}: validate_simple failed")
        if not validate_characteristic(P, doc.lam).ok:
            failures.append(f"{name}: validate_characteristic failed")
        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            failures.append(f"{name}: validation took {elapsed:.2f}s (limit 1s)")
    doc = load_document(input_path("bad_char"), read_text(input_path("bad_char")))
    rep = validate_characteristic(build_polytope(doc), doc.lam)
    if rep.ok:
        failures.append("bad_char: expected characteristic failure")
    elif not any("{2,3}" in f and "2" in f for f in rep.failures):
        failures.append(f"bad_char: wrong witness {rep.failures}")
    _criterion(1, "validation", failures)


def test_criterion_2_gkm_structure(graphs):
    failures = []
    for name, g in graphs.items():
        for e in g.edges:
            if vec_gcd(e.character) != 1:
                failures.append(f"{name}: edge character {e.character} not primitive")
            for i in e.facets:
                if sum(a * b for a, b in zip(e.character, g.lam_row(i))) != 0:
                    failures.append(
                        f"{name}: {e.character} not orthogonal to facet {i}")
        if not euler_coprimality_check(g).ok:
            failures.append(f"{name}: pairwise independence failed")
    _criterion(2, "gkm structure", failures)


def test_criterion_3_gamma_equals_w(graphs):
    failures = []
    for name, g in graphs.items():
        start = time.perf_counter()
        res = suite_gamma_w_agreement(g, SEED, 500)
        elapsed = time.perf_counter() - start
        if not res.passed:
            failures.append(f"{name}: {res.detail}")
        if elapsed >= 30.0:
            failures.append(f"{name}: took {elapsed:.1f}s (limit 30s)")
    _criterion(3, "gamma = w agreement", failures)


def test_criterion_4_phi_homomorphism(graphs):
    failures = []
    for name, g in graphs.items():
        res = suite_phi_homomorphism(g, SEED, 200)
        if not res.passed:
            failures.append(f"{name}: {res.detail}")
    _criterion(4, "phi homomorphism and image", failures)


def test_criterion_5_interpolation(graphs, orders):
    failures = []
    for name, g in graphs.items():
        start = time.perf_counter()
        res = suite_interpolation(g, orders[name], SEED, 200)
        elapsed = time.perf_counter() - start
        if not res.passed:
            failures.append(f"{name}: {res.detail}")
        if elapsed >= 60.0:
            failures.append(f"{name}: took {elapsed:.1f}s (limit 60s)")
    _criterion(5, "interpolation round trip", failures)


def test_criterion_6_kernel(graphs):
    failures = []
    for name, g in graphs.items():
        for gen in kernel_generators(g):
            if not phi(g, gen).is_zero:
                failures.append(f"{name}: {gen.text()} has nonzero image")
    _criterion(6, "kernel generators", failures)


def test_criterion_7_basis_certificate(graphs, orders):
    failures = []
    for name, g in graphs.items():
        vo = orders[name]
        try:
            entries = basis_certificate(g, vo)
        except Exception as exc:
            failures.append(f"{name}: {exc}")
            continue
        if len(entries) != g.m:
            failures.append(f"{name}: {len(entries)} certificate entries for {g.m} vertices")
        order = vo.order
        for e in entries:
            if len(e.extra_facets) != vo.ind[e.vertex]:
                failures.append(f"{name}: |S_{e.position + 1}| != ind")
            img = phi(g, _nonface_product(g.face_profile, e.extra_facets))
            if img[e.vertex].is_zero:
                failures.append(f"{name}: zero diagonal at {e.position + 1}")
            for s in range(e.position):
                if not img[order[s]].is_zero:
                    failures.append(f"{name}: triangularity broken at "
                                    f"({e.position + 1}, {s + 1})")
    _criterion(7, "freeness certificate", failures)


def test_criterion_8_ordinary_rank(graphs):
    failures = []
    for name, g in graphs.items():
        start = time.perf_counter()
        try:
            res = ordinary_rank(g)
        except Exception as exc:
            failures.append(f"{name}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        if (res.rank, res.torsion_free) != (EXPECTED_RANK[name], True):
            failures.append(f"{name}: got rank {res.rank}, torsion_free "
                            f"{res.torsion_free}; expected ({EXPECTED_RANK[name]}, True)")
        if res.rank != g.m:
            failures.append(f"{name}: rank {res.rank} != vertex count {g.m}")
        if elapsed >= 60.0:
            failures.append(f"{name}: took {elapsed:.1f}s (limit 60s)")
    # cross-check against the hand computation Z[y]/(1-y)^(n+1)
    for name in ("cp1", "cp2"):
        g = graphs[name]
        res = ordinary_rank(g)
        # degree n truncates (1-y)^(n+1) away unseen; test it one degree up
        above = OrdinaryKModel(g, g.n + 1)
        surv = res.survivors[0]
        one_minus = (LaurentPoly.one(g.face_profile)
                     - LaurentPoly.variable(g.face_profile, surv - 1))
        if model_vanishes(res, one_minus ** g.n):
            failures.append(f"{name}: (1-y)^{g.n} should be nonzero")
        top = one_minus ** (g.n + 1)
        if not any(model_reduce(above, top)) or not model_vanishes(above, top):
            failures.append(f"{name}: (1-y)^{g.n + 1} should be a nonzero "
                            f"vector that vanishes at degree {g.n + 1}")
    _criterion(8, "ordinary K-ring rank", failures)


def test_criterion_9_determinism(capsys):
    failures = []
    argv = ["proptest", str(input_path("cp3")), "--seed", "5", "--cases", "60"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    if (code1, out1) != (code2, out2):
        failures.append("proptest reports differ between identical runs")
    if code1 != 0:
        failures.append(f"proptest failed: {out1}")
    with capsys.disabled():
        print()
        _criterion(9, "deterministic reports", failures)
