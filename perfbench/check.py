"""Independent answer checker: the benchmark's own phi and member tuples.

Laurent polynomials are plain dicts from exponent tuples to nonzero ints.
The dual bases come from an exact Fraction inverse, not from quasik, so
the member tuples the benchmark builds and the interpolate outputs it
verifies do not depend on the code under test.
"""

from __future__ import annotations

import random

from gen import Manifold, inverse

# shape of the random face-ring elements: up to MAX_TERMS terms, exponents
# in [-EXP_BOUND, EXP_BOUND], nonzero coefficients in [-COEFF_BOUND, COEFF_BOUND]
MAX_TERMS = 3
EXP_BOUND = 2
COEFF_BOUND = 3


def dual_bases(M: Manifold) -> list[dict]:
    """Per vertex v: {facet i: mu_{v,i}} with <mu_{v,i}, lambda_j> = delta_ij on v's facets."""
    out = []
    for fs in M.vertices:
        facets = sorted(fs)
        # rows of (V^T)^-1, V the matrix of v's lambda rows
        Vt = [[M.lam[f - 1][r] for f in facets] for r in range(M.dim)]
        inv = inverse(Vt)
        mus = {}
        for f, row in zip(facets, inv):
            if any(x.denominator != 1 for x in row):
                raise ValueError(f"{M.name}: vertex {facets} is not unimodular")
            mus[f] = tuple(int(x) for x in row)
        out.append(mus)
    return out


def phi(M: Manifold, mu: list[dict], P: dict) -> list[dict]:
    """Restrict a face-ring element to every fixed point: y_i -> e^{mu_{v,i}} or 1."""
    n = M.dim
    out = []
    for v in range(M.m):
        cols = [(i - 1, u) for i, u in mu[v].items()]
        acc = {}
        for exps, c in P.items():
            e = [0] * n
            for i, u in cols:
                k = exps[i]
                if k:
                    for j in range(n):
                        e[j] += k * u[j]
            key = tuple(e)
            s = acc.get(key, 0) + c
            if s:
                acc[key] = s
            else:
                del acc[key]
        out.append(acc)
    return out


def random_face_element(M: Manifold, rng: random.Random) -> dict:
    """A seeded sparse Laurent polynomial in y_1..y_d."""
    P = {}
    for _ in range(rng.randint(1, MAX_TERMS)):
        exps = tuple(rng.randint(-EXP_BOUND, EXP_BOUND) for _ in range(M.facets))
        c = rng.choice([x for x in range(-COEFF_BOUND, COEFF_BOUND + 1) if x])
        s = P.get(exps, 0) + c
        if s:
            P[exps] = s
        else:
            del P[exps]
    return P or {(0,) * M.facets: 1}


def add_monomial(t: list[dict], v: int, u: tuple, c: int) -> list[dict]:
    """t with c e^u added at vertex v.

    Every Euler class 1 - e^{-w} vanishes at t = 1, so all entries of a
    member share one coefficient sum.  This moves the sum at v alone by
    c != 0: the result is never a member.
    """
    out = [dict(a) for a in t]
    s = out[v].get(u, 0) + c
    if s:
        out[v][u] = s
    else:
        del out[v][u]
    return out


def terms_json(p: dict) -> list:
    return [{"coeff": c, "exps": list(e)} for e, c in sorted(p.items())]


def tuple_json(t: list[dict]) -> dict:
    return {"entries": [terms_json(a) for a in t]}


def poly_from_json(terms: list) -> dict:
    out = {}
    for term in terms:
        e = tuple(term["exps"])
        s = out.get(e, 0) + term["coeff"]
        if s:
            out[e] = s
        else:
            del out[e]
    return out
