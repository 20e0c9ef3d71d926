"""Seeded randomized invariant suites, shared by the CLI and the test suite.

Everything is driven by string-seeded random.Random instances, so a run is
reproducible from (input, seed, cases) alone.  Members of the restriction
subring are built as phi of one random face-ring element, a combination of
monomials theta(u) * y^a; non-members perturb a single entry by a
monomial, which can never stay divisible on the edges at that vertex.

Two suites walk a vertex order: the interpolation round trip and the basis
certificate.  run_all takes the document's order, or None and the reason
there is none, and then fails those two with that reason.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .facering import (
    basis_certificate,
    constant_tuple,
    interpolate,
    kernel_generators,
    phi,
    theta,
)
from .gkm import GkmGraph, euler_coprimality_check, in_gamma, in_w
from .laurent import LaurentPoly
from .polytope import InvalidOrder, NonGenericHeight, VertexOrder, vertex_order_from_heights

MAX_TERMS = 3       # terms in a random face element, products in a random member
EXP_BOUND = 2       # largest |exponent| in random characters and face elements
MAX_COEFF = 3       # largest |coefficient| in random face elements
RANDOM_ORDERS = 3   # height orders besides the document's that the certificate suite tries

# the suites that walk a vertex order
INTERPOLATION = "interpolation-roundtrip"
CERTIFICATE = "basis-certificate"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {self.cases} cases {status}{note}"


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def random_character(rng, n):
    return tuple(rng.randint(-EXP_BOUND, EXP_BOUND) for _ in range(n))


def random_face_element(rng, g: GkmGraph) -> LaurentPoly:
    nvars = g.face_profile.nvars
    coeffs = [x for x in range(-MAX_COEFF, MAX_COEFF + 1) if x]
    return LaurentPoly(g.face_profile, [
        (tuple(rng.randint(-EXP_BOUND, EXP_BOUND) for _ in range(nvars)), rng.choice(coeffs))
        for _ in range(rng.randint(1, MAX_TERMS))])


def random_member_tuple(rng, g: GkmGraph):
    """phi(sum of eps * theta(u) * y^a), the sum of eps * e^u * prod r_i^{a_i}."""
    P = LaurentPoly.zero(g.face_profile)
    for _ in range(rng.randint(1, MAX_TERMS)):
        u = random_character(rng, g.n)
        eps = rng.choice([1, -1, 2, -2])
        a = [rng.randint(-1, 2) for _ in range(g.d)] + [0] * g.bott
        P = P + theta(g, u) * LaurentPoly.monomial(g.face_profile, a, eps)
    return phi(g, P)


def perturb_one_entry(rng, g: GkmGraph, t):
    """Add a monomial to one entry; always leaves the restriction subring."""
    v = rng.randrange(g.m)
    u = random_character(rng, g.n)
    c = rng.choice([1, -1, 2, 3])
    return t.replace(v, t[v] + LaurentPoly.char_monomial(g.char_profile, u, c))


def suite_gkm_structure(g: GkmGraph) -> SuiteResult:
    """Exhaustive: edge characters primitive, orthogonal, pairwise independent."""
    name = "gkm-structure"
    from .lattice import vec_gcd
    for e in g.edges:
        if vec_gcd(e.character) != 1 or not any(e.character):
            return SuiteResult(name, len(g.edges), False,
                               f"edge character {e.character} not primitive")
        for i in e.facets:
            if sum(a * b for a, b in zip(e.character, g.lam_row(i))) != 0:
                return SuiteResult(name, len(g.edges), False,
                                   f"character {e.character} not orthogonal to facet {i}")
    rep = euler_coprimality_check(g)
    if not rep.ok:
        return SuiteResult(name, len(g.edges), False, rep.failures[0])
    return SuiteResult(name, len(g.edges), True, "")


def suite_gamma_w_agreement(g: GkmGraph, seed: int, cases: int) -> SuiteResult:
    """in_gamma and in_w must agree on members and perturbed non-members."""
    name = "gamma-w-agreement"
    rng = _rng(seed, "gamma-w")
    for k in range(cases):
        t = random_member_tuple(rng, g)
        expect_member = k % 2 == 0
        if not expect_member:
            t = perturb_one_entry(rng, g, t)
        a = in_gamma(g, t)
        b = in_w(g, t)
        if a.member != b.member:
            return SuiteResult(name, cases, False,
                               f"case {k}: in_gamma={a.member} in_w={b.member}")
        if a.member != expect_member:
            return SuiteResult(name, cases, False,
                               f"case {k}: expected member={expect_member}")
    return SuiteResult(name, cases, True, "")


def suite_phi_homomorphism(g: GkmGraph, seed: int, cases: int) -> SuiteResult:
    """phi is a ring map, its image lies in the edge subring, theta goes diagonal
    (checked on cases // 4 random characters)."""
    name = "phi-homomorphism"
    rng = _rng(seed, "phi")
    elements = [random_face_element(rng, g) for _ in range(cases)]
    for k in range(0, cases - 1, 2):
        p, q = elements[k], elements[k + 1]
        if phi(g, p * q) != phi(g, p) * phi(g, q):
            return SuiteResult(name, cases, False, f"case {k}: phi not multiplicative")
        if phi(g, p + q) != phi(g, p) + phi(g, q):
            return SuiteResult(name, cases, False, f"case {k}: phi not additive")
    for k, p in enumerate(elements):
        if not in_gamma(g, phi(g, p)).member:
            return SuiteResult(name, cases, False, f"case {k}: image not in the edge subring")
    for k in range(cases // 4):
        u = random_character(rng, g.n)
        expected = constant_tuple(g, LaurentPoly.char_monomial(g.char_profile, u))
        if phi(g, theta(g, u)) != expected:
            return SuiteResult(name, cases, False, f"theta case {k}: not diagonal at {u}")
    return SuiteResult(name, cases, True, "")


def suite_interpolation(g: GkmGraph, order: VertexOrder, seed: int, cases: int) -> SuiteResult:
    """Round trip: interpolate(phi(P)) along order reproduces phi(P) exactly."""
    name = INTERPOLATION
    rng = _rng(seed, "interp")
    for k in range(cases):
        p = random_face_element(rng, g)
        img = phi(g, p)
        try:
            res = interpolate(g, order, img)
        except Exception as exc:
            return SuiteResult(name, cases, False, f"case {k}: {exc}")
        if phi(g, res.poly) != img:
            return SuiteResult(name, cases, False, f"case {k}: round trip differs")
    return SuiteResult(name, cases, True, "")


def suite_kernel(g: GkmGraph) -> SuiteResult:
    """Exhaustive: every minimal-non-face product maps to the zero tuple."""
    name = "kernel-generators"
    gens = kernel_generators(g)
    for p in gens:
        if not phi(g, p).is_zero:
            return SuiteResult(name, len(gens), False, f"{p.text()} not in the kernel")
    return SuiteResult(name, len(gens), True, "")


def suite_certificate(g: GkmGraph, order: VertexOrder, seed: int, coords=None) -> SuiteResult:
    """Triangular basis certificate for the document order and random height orders."""
    name = CERTIFICATE
    tried = 0
    try:
        basis_certificate(g, order)
        tried += 1
    except Exception as exc:
        return SuiteResult(name, tried + 1, False, str(exc))
    if coords is not None:
        rng = _rng(seed, "cert-orders")
        made = 0
        attempts = 0
        while made < RANDOM_ORDERS and attempts < 20 * RANDOM_ORDERS:
            attempts += 1
            w = tuple(rng.randint(-9, 9) for _ in range(len(coords[0])))
            try:
                alt = vertex_order_from_heights(g.polytope, coords, w)
            except (NonGenericHeight, InvalidOrder):
                continue
            made += 1
            try:
                basis_certificate(g, alt)
                tried += 1
            except Exception as exc:
                return SuiteResult(name, tried + 1, False,
                                   f"height vector {w}: {exc}")
    return SuiteResult(name, tried, True, "")


def run_all(g: GkmGraph, order: VertexOrder | None, why: str | None, seed: int, cases: int,
            coords=None) -> list[SuiteResult]:
    """Every suite, in report order.  Without an order, why says why not,
    and the two suites that walk one fail with that reason."""
    return [
        suite_gkm_structure(g),
        suite_gamma_w_agreement(g, seed, cases),
        suite_phi_homomorphism(g, seed, cases),
        SuiteResult(INTERPOLATION, 0, False, why) if order is None
        else suite_interpolation(g, order, seed, cases),
        suite_kernel(g),
        SuiteResult(CERTIFICATE, 0, False, why) if order is None
        else suite_certificate(g, order, seed, coords),
    ]
