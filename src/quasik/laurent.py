"""Sparse multivariate Laurent polynomials over the integers.

A polynomial lives in a fixed variable profile: either character
coordinates t1..tn or face-ring generators y1..yd, optionally extended by
an invertible Bott variable z appended as the last coordinate.  Terms are
stored as a map from exponent tuples (negative entries allowed) to nonzero
integer coefficients; the zero polynomial is the empty map.  A monomial
substitution is a MonomialMap, which carries its source and target
profiles and stores only the coordinates it reads and writes.

add_terms is the one in-place sum of sparse terms: the constructor, +, -
and *, interpolation's sum P and the tuple loader all go through it.
Four hot kernels keep their own merge loops: project_terms,
substitute_monomial_map, interpolation's steps and owed sums in each
vertex's local exponents (facering.interpolate) and the ordinary model's
truncated non-face products (facering.OrdinaryKModel._nonface_terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, itemgetter, mul

from .lattice import NotPrimitive, vec_gcd


class ProfileMismatch(ValueError):
    """Operands live in different variable profiles."""


class DimensionMismatch(ValueError):
    """Matrix or vector size does not match the variable count."""


class NotDivisible(ArithmeticError):
    """Exact quotient requested for a non-divisible polynomial."""


class ZeroCharacter(ValueError):
    """A nonzero character was required."""


CHAR = "char"
FACE = "face"


@dataclass(frozen=True)
class Profile:
    """Variable profile: kind ('char' -> t's, 'face' -> y's), count, optional z."""

    kind: str
    count: int
    bott: bool = False

    @property
    def nvars(self) -> int:
        return self.count + (1 if self.bott else 0)

    def varname(self, i: int) -> str:
        if self.bott and i == self.count:
            return "z"
        stem = "t" if self.kind == CHAR else "y"
        return f"{stem}{i + 1}"


def char_profile(n: int, bott: bool = False) -> Profile:
    return Profile(CHAR, n, bott)


def face_profile(d: int, bott: bool = False) -> Profile:
    return Profile(FACE, d, bott)


class LaurentPoly:
    """Immutable sparse Laurent polynomial in a fixed profile."""

    __slots__ = ("profile", "terms")

    def __init__(self, profile: Profile, terms):
        """terms: a {exponents: coeff} map or (exponents, coeff) pairs; the
        coefficients of equal exponents are summed and zero sums dropped.
        Exponents and coefficients must be integers; an integral value of
        another type (1.0) is stored as an int, anything else (2.5,
        Fraction(7, 2)) raises ValueError."""
        pairs = []
        nv = profile.nvars
        for exp, c in (terms.items() if hasattr(terms, "items") else terms):
            given = tuple(exp)
            exp = tuple(map(int, given))
            if exp != given:
                raise ValueError(f"exponent vector {given} is not integral")
            if len(exp) != nv:
                raise DimensionMismatch(
                    f"exponent vector {exp} has length {len(exp)}, profile needs {nv}")
            coeff = int(c)
            if coeff != c:
                raise ValueError(f"coefficient {c!r} is not an integer")
            pairs.append((exp, coeff))
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "terms", add_terms({}, pairs))

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(profile: Profile) -> "LaurentPoly":
        return LaurentPoly(profile, {})

    @staticmethod
    def constant(profile: Profile, c: int) -> "LaurentPoly":
        return LaurentPoly(profile, {(0,) * profile.nvars: c})

    @staticmethod
    def one(profile: Profile) -> "LaurentPoly":
        return LaurentPoly.constant(profile, 1)

    @staticmethod
    def monomial(profile: Profile, exps, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(profile, {tuple(exps): coeff})

    @staticmethod
    def variable(profile: Profile, index: int) -> "LaurentPoly":
        exps = [0] * profile.nvars
        exps[index] = 1
        return LaurentPoly(profile, {tuple(exps): 1})

    @staticmethod
    def char_monomial(profile: Profile, u, coeff: int = 1) -> "LaurentPoly":
        """e^u for a character u of length profile.count (z exponent 0)."""
        if len(u) != profile.count:
            raise DimensionMismatch(f"character length {len(u)} != {profile.count}")
        exps = tuple(u) + ((0,) if profile.bott else ())
        return LaurentPoly(profile, {exps: coeff})

    # -- basic structure ----------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "LaurentPoly"):
        if self.profile != other.profile:
            raise ProfileMismatch(f"{self.profile} vs {other.profile}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.profile == other.profile and self.terms == other.terms

    def __hash__(self):
        return hash((self.profile, frozenset(self.terms.items())))

    # -- ring operations ----------------------------------------------
    # an operand that is neither an int nor a LaurentPoly gets NotImplemented,
    # so Python tries its reflected method (FixedPointTuple.__rmul__ for c * t)
    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.profile, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        return _raw(self.profile, add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.profile, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.profile, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        return _raw(self.profile, add_terms(dict(self.terms), other.terms.items(), -1))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.profile)
            return _raw(self.profile, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            add_terms(out, [(tuple(map(add, e1, e2)), c1 * c2)
                            for e2, c2 in other.terms.items()])
        return _raw(self.profile, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self._unit_inverse() ** (-k)
        result = LaurentPoly.one(self.profile)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _unit_inverse(self):
        if len(self.terms) != 1:
            raise NotDivisible("only unit monomials are invertible")
        (e, c), = self.terms.items()
        if c not in (1, -1):
            raise NotDivisible(f"coefficient {c} is not a unit over Z")
        return _raw(self.profile, {tuple(-x for x in e): c})

    # -- rendering ----------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items())

    def text(self) -> str:
        if not self.terms:
            return "0"
        prof = self.profile
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                prof.varname(i) + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(exp) if e != 0)
            mag = abs(c)
            body = mono if (mono and mag == 1) else (f"{mag}*{mono}" if mono else str(mag))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.text()!r})"


def add_terms(acc: dict, terms, sign: int = 1) -> dict:
    """Add sign * c at e into acc for each (e, c) in terms, in place, keeping
    no zero coefficient; returns acc.  project_terms,
    substitute_monomial_map, interpolate and OrdinaryKModel._nonface_terms
    inline this loop, since they are the hot kernels."""
    for e, c in terms:
        x = acc.get(e, 0) + sign * c
        if x:
            acc[e] = x
        else:
            acc.pop(e, None)
    return acc


def _raw(profile: Profile, terms: dict) -> LaurentPoly:
    """Build from an already-normalized term dict (no re-validation)."""
    p = object.__new__(LaurentPoly)
    object.__setattr__(p, "profile", profile)
    object.__setattr__(p, "terms", terms)
    return p


class MonomialMap:
    """The exponent map u -> A u of a monomial substitution from polynomials
    in profile src to polynomials in profile dst, stored sparsely.

    A is a dst.count x src.count integer matrix that vanishes off the
    columns listed in source and the rows listed in target; block holds the
    rest, with block[r][c] = A[target[r]][source[c]].  So the image of a
    term depends only on its exponents at source, and it is 0 off target.
    A Bott exponent z is carried through, so src and dst agree on z.
    """

    __slots__ = ("src", "dst", "source", "target", "block", "_pick")

    def __init__(self, src: Profile, dst: Profile, source, target, block):
        source, target = tuple(source), tuple(target)
        block = tuple(map(tuple, block))
        if src.bott != dst.bott:
            raise DimensionMismatch(
                f"Bott variable z in the {'source' if src.bott else 'target'} profile only")
        if not _index_set(source, src.count):
            raise DimensionMismatch(f"source {source} is not a set of columns below {src.count}")
        if not _index_set(target, dst.count):
            raise DimensionMismatch(f"target {target} is not a set of rows below {dst.count}")
        if len(block) != len(target) or any(len(r) != len(source) for r in block):
            raise DimensionMismatch(
                f"block is not {len(target)} x {len(source)} (target x source)")
        # the projection onto source, then z
        pick = coordinate_getter(source + ((src.count,) if src.bott else ()))
        for name, value in zip(self.__slots__, (src, dst, source, target, block, pick)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("MonomialMap is immutable")

    def __repr__(self):
        return (f"MonomialMap({self.src}, {self.dst}, source={self.source}, "
                f"target={self.target}, block={self.block})")


def _index_set(idx: tuple, bound: int) -> bool:
    """Distinct indices in range(bound)?"""
    return not idx or (len(set(idx)) == len(idx) and min(idx) >= 0 and max(idx) < bound)


def coordinate_getter(idx: tuple):
    """exp -> tuple of exp at idx."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        (j,) = idx
        return lambda exp: (exp[j],)
    return lambda exp: ()


def substitute_monomial_map(f: LaurentPoly, A: MonomialMap) -> LaurentPoly:
    """Apply the monomial substitution e^u -> e^{A u} to every term of f.

    f must live in A.src, and the result lives in A.dst; a Bott exponent is
    carried through unchanged.  Each term is first projected onto A's
    source coordinates (and z), merging the terms that collide; only what
    is left goes through A's block.
    """
    if f.profile is not A.src and f.profile != A.src:
        raise DimensionMismatch(f"polynomial in {f.profile}, map reads {A.src}")
    rows, target, block = A.dst.count, A.target, A.block
    k = len(A.source)
    out = {}
    for x, c in project_terms(f.terms, A._pick).items():
        ne = [0] * rows
        for i, r in zip(target, block):
            ne[i] = sum(map(mul, r, x))
        ne = tuple(ne) + x[k:]      # z, if any
        v = out.get(ne, 0) + c
        if v:
            out[ne] = v
        else:
            del out[ne]
    return _raw(A.dst, out)


def project_terms(terms: dict, pick) -> dict:
    """{pick(exp): summed coefficient}, zeros dropped: the coordinates pick leaves out -> 1."""
    proj = {}
    for exp, c in terms.items():
        x = pick(exp)
        v = proj.get(x, 0) + c
        if v:
            proj[x] = v
        else:
            del proj[x]             # c != 0, so x was there
    return proj


def divides_one_minus(f: LaurentPoly, u) -> bool:
    """True iff (1 - e^{-u}) divides f, for a primitive nonzero character u.

    1 - e^{-u} is a unit times 1 - e^u, and Z[M]/(1 - e^u) is the group ring
    of M/Zu, so f is divisible exactly when its coefficients sum to 0 on
    every coset a + Zu, keyed by coset_key.
    """
    prof = f.profile
    if prof.kind != CHAR:
        raise ProfileMismatch("binomial divisibility lives in the character profile")
    return not project_terms(f.terms, coset_key(tuple(int(x) for x in u), prof.count))


def coset_key(u: tuple, n: int):
    """exp -> the key of its coset exp + Zu, for a primitive nonzero character
    u of length n; a wrong length, u = 0 or a non-primitive u raises.

    With p the first nonzero coordinate of u, the coset of a is keyed by
    u_p*a - a_p*u, which vanishes exactly on Zu because u is primitive; an
    exponent past the first n (a Bott exponent) is kept as it is.
    """
    if len(u) != n:
        raise DimensionMismatch(f"character length {len(u)} != {n}")
    if not any(u):
        raise ZeroCharacter("character must be nonzero")
    g = vec_gcd(u)
    if g != 1:
        raise NotPrimitive(f"gcd of {u} is {g}")
    up = next(filter(None, u))
    p = u.index(up)

    def key(exp):
        ap = exp[p]
        return tuple([up * a - ap * b for a, b in zip(exp, u)]) + exp[n:]
    return key
