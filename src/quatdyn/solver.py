"""Root finding for quaternion left polynomials via the companion polynomial.

conj(g)*g always has coefficients in the ground field.  Over a real-embedded
field its roots pair off into quadratics x^2 - T*x + N, and each pair (T, N)
is a candidate conjugacy class for the roots of g: inside the class the
identity z^2 = T*z - N rewrites every power of z as p*z + q with central p, q,
collapsing g(z) = 0 to the linear equation A*z + B = 0.  That equation is
either trivial (the whole class consists of roots), insoluble (the class
contains none), or pins the unique root of g in the class.

Class extraction is one pipeline with two acceptance policies:

  1. the squarefree part c / gcd(c, c') of the companion, by exact Euclid
     over Q or Q(sqrt d) with monic divisors, since unnormalized remainders
     carry their leading coefficient in every coefficient and swell;
  2. its roots, approximated by the Aberth ladder of `aberth.aberth_roots`
     (rungs of doubling precision on Gaussian integers from a narrow first
     one, each approximant with its own binary exponent) on the integers the
     policy holds: the monic squarefree part, or in numeric mode that part
     in units of 2**-(precision + 32), the rounding its disks then cover;
  3. a policy that turns the approximations into classes:

  exact    rational ground field only.  The monic companion is rescaled to a
           monic integer polynomial D.  Every near-real root and every pair of
           roots of its squarefree part is rounded to integer candidates
           y - m or y^2 - t*y + u, and a candidate is kept only when exact
           trial division of D succeeds (as often as it does).  The ladder
           climbs while a remainder is left and the roots' Weierstrass disks
           do not yet fix every candidate to within 1/2; once they do, the
           remainder has no linear or quadratic factor over Q and
           ClassSearchIncompleteError is raised, pointing at numeric mode.
           Approximations only propose candidates; exact division decides.

  numeric  any ground field with a real embedding.  The squarefree part is
           embedded at the requested bit precision and the ladder climbs to
           that precision plus 64 bits.  A root is near-real when its
           imaginary part is within 2**-(precision/2) * (1 + |z|) and its
           inclusion disk meets the real axis, with one verdict per
           conjugate pair.  Near-real roots give central classes
           (2*mu, mu^2), conjugate pairs give (T, N), each snapped to the
           simplest rational within the root's inclusion disk.  The
           reduction and every residual are afterwards computed exactly from
           that approximate class data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from .aberth import aberth_roots, inclusion_radii, sqrt_up, to_grid
from .errors import (
    ClassSearchIncompleteError,
    ConvergenceError,
    SplitAlgebraError,
    UnsupportedAlgebraError,
    ZeroPolynomialError,
)
from .polynomials import Poly, divmod_monic
from .quaternions import QuatSpec, Quaternion
from .scalars import Scalar

DEFAULT_PRECISION = 128
DEFAULT_TOLERANCE = 1e-9
# the largest precision the command line accepts: a dense numeric degree-8
# call takes about 1 s at 2048 bits and about 4 s at 4096 (2-core x86 host,
# CPython 3.11)
MAX_PRECISION = 2048


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class candidate, identified by trace and norm."""

    trace: Scalar
    norm: Scalar
    exact: bool = True
    precision: int | None = None
    # numeric central classes: whether every inclusion disk of the companion's
    # roots excludes the candidate T/2, so that it is no root of the companion
    excluded: bool = False

    @property
    def discriminant(self) -> Scalar:
        return self.trace * self.trace - self.norm * 4

    @property
    def is_central(self) -> bool:
        return self.discriminant == 0

    def sort_key(self):
        return (self.trace, self.norm)


@dataclass(frozen=True)
class ClassSolution:
    """Outcome of solving g = 0 within one conjugacy class.

    kind is one of "point" (unique root, verified), "sphere" (the linear
    reduction is trivial, the entire class solves), "none" (the reduction is
    provably insoluble in the class) or "anomaly" (a verification failed and
    is reported rather than dropped).
    """

    kind: str
    klass: ConjClass
    point: Quaternion | None = None
    residual: float | int | None = None  # an int past the double range
    detail: str = ""


def companion(g: Poly) -> Poly:
    """conj(g)*g, as a polynomial over the ground field."""
    if not isinstance(g.spec, QuatSpec):
        raise UnsupportedAlgebraError("companion polynomials need a quaternion algebra")
    if g.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no companion")
    # only the ground-field columns of the product are computed: the others cancel
    table = g.spec.table
    cols = table.poly_mul(g.cols, g.cols, norm=True)[: table.width]
    return Poly.from_cols(g.spec.field, cols, g.den * g.den * table.den)


# -- the class-extraction pipeline ---------------------------------------------


def _monic(p: list) -> list:
    """p over its leading coefficient; the empty list stays empty."""
    return [x / p[-1] for x in p]


def _squarefree(coeffs) -> list:
    """Monic squarefree part c / gcd(c, c') over Q or Q(sqrt d), low degree first.

    Euclid divides by monic divisors only (the derivative included), since
    unnormalized remainders carry their leading coefficient in every
    coefficient and swell (Knuth, TAOCP vol. 2, 4.6.1).
    """
    c = _monic(coeffs)
    a, b = c, _monic([i * x for i, x in enumerate(c)][1:])
    while b:
        r = divmod_monic(a, b)[1]
        while r and not r[-1]:
            r.pop()
        a, b = b, _monic(r)
    return divmod_monic(c, a)[0]


def _monic_integer(C: Poly) -> tuple[list[int], int]:
    """D(y) = s**n * C(y/s) / lead: monic with integer coefficients."""
    [cs] = C.cols
    lead, n = cs[-1], len(cs) - 1
    s = math.lcm(*(abs(lead) // math.gcd(c, lead) for c in cs))
    return [c * s ** (n - i) // lead for i, c in enumerate(cs)], s


def _certification_bits(P: list[int]) -> int:
    """Top of the ladder for the monic integer P of degree n and bit height H.

    |P'| at a root is at least 2**-O(n**2 * (H + log n)) (the discriminant is
    a nonzero integer), which bounds the precision that isolates every root
    to well within 1/2 of its candidate data.
    """
    n = len(P) - 1
    height = max(abs(c).bit_length() for c in P)
    return (n + 1) ** 2 * (height + n.bit_length() + 2)


class _FactorSearch:
    """Monic factors y - m and y^2 - t*y + u of the monic integer D.

    Called with each rung's approximate roots of the squarefree part P of D.
    It rounds every near-real root to m and every pair of roots to
    (t, u) = (sum, product), and keeps a candidate only when exact trial
    division of the remainder succeeds, as often as it does.  By Gauss's
    lemma every monic factor of D over Q has integer coefficients, so once
    the Weierstrass disks of P's roots are disjoint and small enough to fix
    every m, t and u to within 1/2, a remainder left over has no linear or
    quadratic factor over Q.
    """

    def __init__(self, D: list[int], P: list[int]) -> None:
        self.rest = D
        self.P = P
        self.found: list[tuple[int, int]] = []  # (t, u) of each factor, y - m as (2m, m^2)
        self.tried: set[tuple] = set()  # divisors already divided out or refuted
        self.certified = False

    def __call__(self, zs, bits: int) -> bool:
        E, pts = to_grid(zs, bits)
        half = 1 << (E - 1)
        for A, B in pts:
            if abs(B) < half:
                self._linear((A + half) >> E)
        for a, (A1, B1) in enumerate(pts):
            for A2, B2 in pts[a + 1:]:
                if len(self.rest) > 2 and abs(B1 + B2) < half and abs(A1 * B2 + A2 * B1) < half << E:
                    t = (A1 + A2 + half) >> E
                    u = (A1 * A2 - B1 * B2 + (half << E)) >> (2 * E)
                    self._quadratic(t, u)
        if len(self.rest) == 1:
            return True
        self.certified = self._certify(E, pts)
        return self.certified

    def _linear(self, m: int) -> None:
        if m and not self.rest[0] % m:
            self._divide_out([-m, 1], (2 * m, m * m))

    def _quadratic(self, t: int, u: int) -> None:
        disc = t * t - 4 * u
        if disc >= 0 and isqrt(disc) ** 2 == disc:  # y^2 - t*y + u splits over Z
            r = isqrt(disc)
            self._linear((t + r) // 2)
            self._linear((t - r) // 2)
        elif not self.rest[0] % u:
            self._divide_out([u, -t, 1], (t, u))

    def _divide_out(self, divisor: list[int], klass: tuple[int, int]) -> None:
        """Divide the remainder by the monic divisor as often as it goes."""
        if tuple(divisor) in self.tried:
            return
        self.tried.add(tuple(divisor))
        R = self.rest
        while len(R) >= len(divisor):
            q, r = divmod_monic(R, divisor)
            if any(r):
                break
            self.found.append(klass)
            R = q
        self.rest = R

    def _certify(self, E: int, pts: list[tuple[int, int]]) -> bool:
        """Disjoint disks of radius at most rho around points of modulus at
        most Z, with 2*rho < 1/2 (fixes m and t) and (2Z + rho)*rho < 1/2
        (fixes u)."""
        radii = inclusion_radii(self.P, E, pts)
        if radii is None:
            return False
        rho = max(radii)
        unit = Fraction(1, 1 << (2 * E))
        gap2 = min(
            ((A1 - A2) ** 2 + (B1 - B2) ** 2 for a, (A1, B1) in enumerate(pts) for A2, B2 in pts[a + 1:]),
            default=None,
        )
        if gap2 is not None and not 4 * rho * rho < gap2 * unit:
            return False
        Z = sqrt_up(max(A * A + B * B for A, B in pts) * unit)
        return 4 * rho < 1 and (2 * Z + rho) * rho < Fraction(1, 2)


def _exact_classes(C: Poly) -> list[ConjClass]:
    if not C.spec.is_rational:
        raise UnsupportedAlgebraError(
            "exact class extraction is only available over the rationals"
        )
    if C.degree < 1:
        return []
    D, s = _monic_integer(C)
    found: list[tuple[int, int]] = []
    while len(D) > 1 and D[0] == 0:
        found.append((0, 0))
        D = D[1:]
    if len(D) > 1:
        P = [int(c) for c in _squarefree([Fraction(c) for c in D])]
        search = _FactorSearch(D, P)
        aberth_roots(P, precision=_certification_bits(P), accept=search)
        if len(search.rest) > 1 and not search.certified:
            raise ConvergenceError(
                "companion roots could not be isolated within the precision bound"
            )
        found += search.found
        D = search.rest

    classes = _dedup_sorted(
        [
            ConjClass(C.spec.scalar(Fraction(t, s)), C.spec.scalar(Fraction(u, s * s)))
            for (t, u) in found
        ]
    )
    if len(D) > 1:
        raise ClassSearchIncompleteError(
            f"companion has an irrational remainder of degree {len(D) - 1}; "
            "use numeric mode",
            classes=classes,
            remainder_degree=len(D) - 1,
        )
    return classes


def _dedup_sorted(classes: list[ConjClass]) -> list[ConjClass]:
    unique: dict[tuple, ConjClass] = {}
    for k in classes:
        unique.setdefault((k.trace, k.norm), k)
    return sorted(unique.values(), key=ConjClass.sort_key)


def _simplest(x: Fraction, delta: Fraction) -> Fraction:
    """The rational of least denominator, then least magnitude, within delta of x."""
    lo, hi = x - delta, x + delta
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -_simplest(-x, delta)
    # continued-fraction descent into [a/b, c/d], 0 < a/b <= c/d, with the
    # convergents p/q built as it goes
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        whole, rest = divmod(a, b)
        if not rest or (whole + 1) * d <= c:
            term = whole if not rest else whole + 1
            return Fraction(term * p1 + p0, term * q1 + q0)
        p0, q0, p1, q1 = p1, q1, whole * p1 + p0, whole * q1 + q0
        a, b, c, d = d, c - whole * d, b, rest


def _near_real(A: int, B: int, E: int, h: int) -> bool:
    """|Im z| <= 2**-h * (1 + |z|) at the grid point z = (A + iB)/2**E."""
    excess = (abs(B) << h) - (1 << E)
    return excess <= 0 or excess * excess <= A * A + B * B


def _real_roots(
    pts: list[tuple[int, int]], radii: list[Fraction] | None, E: int, h: int
) -> list[bool]:
    """Which grid points (A + iB)/2**E count as real roots.

    A point counts when |Im z| is within 2**-h * (1 + |z|) and, where the
    disks are known, its own disk meets the real axis.  A conjugate pair gets
    one verdict: each point found non-real makes the point nearest its
    conjugate, across the axis, non-real as well.  (The approximants of a
    pair are not exact conjugates, nor are their radii equal.)
    """
    real = [
        _near_real(A, B, E, h) and (radii is None or Fraction(abs(B), 1 << E) <= rho)
        for (A, B), rho in zip(pts, radii or [None] * len(pts))
    ]
    for k in [k for k, r in enumerate(real) if not r]:
        A, B = pts[k]
        across = [j for j, (_, B2) in enumerate(pts) if B2 * B < 0]
        if across:
            j = min(across, key=lambda j: (pts[j][0] - A) ** 2 + (pts[j][1] + B) ** 2)
            real[j] = False
    return real


def _numeric_classes(C: Poly, precision: int) -> list[ConjClass]:
    if not C.spec.has_real_embedding:
        raise UnsupportedAlgebraError(
            "numeric class extraction needs a real-embedded ground field"
        )
    if C.degree < 1:
        return []
    P = [int(c.to_real(precision + 32) * 2 ** (precision + 32)) for c in _squarefree(C.coeffs)]
    zs = aberth_roots(P, precision=precision)
    E, pts = to_grid(zs, precision + 64)
    # the disks also cover the rounding by to_real: one unit in each coefficient
    radii = inclusion_radii(P, E, pts, 1)
    unit = Fraction(1, 1 << E)
    disks = [] if radii is None else [(A * unit, B * unit, rho) for (A, B), rho in zip(pts, radii)]

    # class data snapped to the simplest rational within each root's disk
    found: list[tuple[Fraction, Fraction, bool]] = []
    upper = lower = 0
    real = _real_roots(pts, radii, E, precision // 2)
    for (A, B), rho, is_real in zip(pts, radii or [Fraction(0)] * len(pts), real):
        re, im = A * unit, B * unit
        if is_real:
            mu = _simplest(re, rho)
            # mu lies in its own root's disk as a rule, so that one goes first
            excluded = bool(disks) and all(
                (x - mu) ** 2 + y * y > r * r for x, y, r in [(re, im, rho)] + disks
            )
            found.append((2 * mu, mu * mu, excluded))
        elif B > 0:
            upper += 1
            modulus = sqrt_up(re * re + im * im)
            found.append(
                (
                    _simplest(2 * re, 2 * rho),
                    _simplest(re * re + im * im, (2 * modulus + rho) * rho),
                    False,
                )
            )
        else:
            lower += 1
    if lower != upper:
        raise ConvergenceError("conjugate pairing of numeric roots failed")
    return _dedup_sorted(
        [
            ConjClass(
                C.spec.scalar(T),
                C.spec.scalar(N),
                exact=False,
                precision=precision,
                excluded=excluded,
            )
            for (T, N, excluded) in found
        ]
    )


def _resolving_precision(C: Poly, mu: Scalar, precision: int) -> int:
    """An estimate of the precision at which numeric extraction tells the
    roots of C near mu apart from mu, for a candidate mu with C(mu) != 0.

    With a_k the Taylor coefficients of C at mu, the roots lie at least
    L = min |a_0 / a_k|^(1/k) / 2 from mu (Fujiwara's bound).  The ladder
    tells them apart from mu once the rounding of the monic coefficients to
    2**-(p + 32), which moves the value at mu by up to 2**-(p + 32) *
    sum |mu|^k, stays 16 bits below |a_0 / lead|, and once the test for a
    real root, |Im z| <= 2**-(p/2), is finer than L.  The estimate is at
    least twice `precision`, which did not suffice.
    """
    taylor, rest = [], list(C.coeffs)  # the Taylor shift by mu: remainders by y - mu
    while rest:
        rest, r = divmod_monic(rest, [-mu, 1])
        taylor += r
    if not taylor[0]:
        return 2 * precision
    low = _log2_bound(taylor[0]) - 1
    spread = C.degree * max(_log2_bound(mu), 0) + C.degree.bit_length()
    rounding = _log2_bound(C.leading()) + spread - low + 16 - 32
    distance = max(-(-(_log2_bound(a) - low) // k) + 1 for k, a in enumerate(taylor) if k and a)
    return max(2 * precision, rounding, 2 * distance + 2)


def extract_classes(
    C: Poly, mode: str = "exact", precision: int = DEFAULT_PRECISION
) -> list[ConjClass]:
    """Candidate conjugacy classes (T, N) from a polynomial over the ground field."""
    if mode == "exact":
        return _exact_classes(C)
    if mode == "numeric":
        return _numeric_classes(C, precision)
    raise ValueError(f"unknown mode {mode!r}")


# -- per-class solving ------------------------------------------------------------


def _log2_bound(c: Scalar) -> int:
    """About log2 |c|, rounded up: a scale that brings c near 1."""
    bits = [abs(x.numerator).bit_length() - x.denominator.bit_length() + 1 for x in (c.a, c.b) if x]
    if c.b:
        bits[-1] += c.field.d.bit_length()
    return max(bits, default=0)


# Numeric judgements are exact.  A size is a dyadic lower bound m * 2**e of a
# Euclidean norm with SIZE_BITS significant bits, and a test |v| <= tol * scale
# compares integers over Q and takes the sign of one scalar over Q(sqrt d).
# Rounding the scales down keeps every test at least as strict as the exact one.
SIZE_BITS = 64
Dyadic = tuple[int, int]


def _fma(acc: Dyadic, x: Dyadic, y: Dyadic) -> Dyadic:
    """acc + x*y, rounded down to SIZE_BITS bits; a term below 2**-SIZE_BITS
    times the other drops out."""
    (m, e), (n, f) = acc, (x[0] * y[0], x[1] + y[1])
    if not m or (n and f + n.bit_length() > e + m.bit_length() + SIZE_BITS):
        m, e = n, f
    elif n and e + m.bit_length() <= f + n.bit_length() + SIZE_BITS:
        m, e = (m << max(e - f, 0)) + (n << max(f - e, 0)), min(e, f)
    shift = m.bit_length() - SIZE_BITS
    return (m >> shift, e + shift) if shift > 0 else (m, e)


def _squared_norm(z) -> tuple[int, int, int]:
    """(X, Y, D) with |z|**2 = (X + Y*sqrt d) / D, from z's numerators over
    D = den**2; Y = 0 over Q."""
    d, D = z.spec.field.d, z.den * z.den
    if d is None:
        return sum(v * v for v in z.nums), 0, D
    pairs = list(zip(z.nums[::2], z.nums[1::2]))
    return sum(a * a + d * b * b for a, b in pairs), 2 * sum(a * b for a, b in pairs), D


def _size(z) -> Dyadic:
    """A lower bound of |z| with about SIZE_BITS significant bits."""
    X, Y, D = _squared_norm(z)
    if Y:
        # X + Y*sqrt d and its conjugate are squared norms with an integer
        # product, so X + Y*sqrt d >= 1/(2X): floor it after a shift by t bits
        t = X.bit_length() + 2 * SIZE_BITS
        r = isqrt(Y * Y * z.spec.field.d << 2 * t)  # sqrt d is irrational
        X, D = (X << t) + (r if Y > 0 else -r - 1), D << t
    s = SIZE_BITS - (X.bit_length() - D.bit_length()) // 2
    return isqrt((X << 2 * s) // D if s >= 0 else X // (D << -2 * s)), -s


def _within(v, tol: Fraction, scale: Dyadic) -> bool:
    """|v| <= tol * scale, decided exactly on the squares."""
    X, Y, D = _squared_norm(v)
    m, e = scale
    lhs = tol.denominator**2 << max(-2 * e, 0)
    rhs = (tol.numerator * m) ** 2 * D << max(2 * e, 0)
    # lhs * (X + Y*sqrt d) <= rhs
    return lhs * X <= rhs if not Y else Scalar(v.spec.field, (rhs - lhs * X, -lhs * Y))._sign() >= 0


def _reduction_scales(sizes: list[Dyadic], T: Scalar, N: Scalar) -> tuple[Dyadic, Dyadic]:
    """Sizes of the terms summed into A and B, where g(z) = A z + B in the class.

    A = sum c_k p_k and B = sum c_k q_k for z^k = p_k z + q_k; the sizes are
    sum |c_k| P_k and sum |c_k| Q_k (sizes[k] = |c_k|), with P_k and Q_k the
    sums of the sizes of the monomials in T and N that make up p_k and q_k.
    So cancellation inside p_k counts too: on the complex class of x^3 - 2,
    p_3 = T^2 - N vanishes.
    """
    t, n = _size(T), _size(N)
    P, Q, a_scale, b_scale = (0, 0), (1, 0), (0, 0), (0, 0)
    for size in sizes:
        a_scale, b_scale = _fma(a_scale, size, P), _fma(b_scale, size, Q)
        P, Q = _fma(Q, t, P), _fma((0, 0), n, P)
    return a_scale, b_scale


def _numeric_point(
    g: Poly, sizes: list[Dyadic], klass: ConjClass, lam: Quaternion, tolerance: Fraction
) -> ClassSolution:
    """Accept lam when |g(lam)| is at most tolerance times sum |c_k| |lam|^k,
    the size of its terms (sizes[k] = |c_k|).  The residual is |g(lam)| as a
    double, or as an integer past the double range."""
    lam_size, scale, power = _size(lam), (0, 0), (1, 0)
    for size in sizes:
        scale, power = _fma(scale, size, power), _fma((0, 0), power, lam_size)
    value = g(lam)
    m, e = _size(value)
    try:
        residual = math.ldexp(m, e)
    except OverflowError:
        residual = m << e
    if _within(value, tolerance, scale):
        return ClassSolution("point", klass, point=lam, residual=residual)
    kind, what = ("none", "central candidate") if klass.is_central else ("anomaly", "candidate")
    return ClassSolution(kind, klass, residual=residual, detail=f"{what} residual above tolerance")


def solve_in_class(
    g: Poly, klass: ConjClass, tolerance: float = DEFAULT_TOLERANCE
) -> ClassSolution:
    """Reduce g = 0 inside one conjugacy class to a linear equation and solve.

    Central candidate classes (discriminant zero) are checked by direct
    substitution instead; the reduction degenerates there.  A numeric
    quantity counts as zero, and a numeric point as a root, relative to the
    size of the terms summed into it.
    """
    if not isinstance(g.spec, QuatSpec):
        raise UnsupportedAlgebraError("class solving needs a quaternion algebra")
    T, N = klass.trace, klass.norm
    if not klass.exact:
        sizes, tolerance = [_size(c) for c in g.coeffs], Fraction(tolerance)
        precision = klass.precision or DEFAULT_PRECISION

    if klass.is_central:
        lam = g.spec.coerce(T / 2)
        if klass.exact:
            if g(lam).is_zero:
                return ClassSolution("point", klass, point=lam)
            return ClassSolution(
                "none", klass, detail="central candidate is not a root"
            )
        sol = _numeric_point(g, sizes, klass, lam, tolerance)
        if sol.kind != "none" or klass.excluded:
            return sol
        # the candidate may still be a root of the companion that the working
        # precision could not resolve: no claim of absence
        bits = _resolving_precision(companion(g), T / 2, precision)
        beyond = f", above the cap of {MAX_PRECISION} bits" if bits > MAX_PRECISION else ""
        return replace(
            sol,
            kind="anomaly",
            detail=f"central candidate residual above tolerance, and the inclusion disks at "
            f"{klass.precision} bits do not exclude it; about {bits} bits would resolve the "
            f"class{beyond}",
        )

    # z^k = p_k z + q_k inside the class, so g(z) = A z + B
    A, B = g.quotient_value((g.spec.one(), g.spec.zero()), T, N)

    if klass.exact:
        a_zero, b_zero = A.is_zero, B.is_zero
    else:
        ztol = Fraction(2) ** (-precision // 2 + 8)
        a_scale, b_scale = _reduction_scales(sizes, T, N)
        a_zero, b_zero = _within(A, ztol, a_scale), _within(B, ztol, b_scale)

    if a_zero and b_zero:
        return ClassSolution("sphere", klass)
    if a_zero:
        if klass.exact:
            return ClassSolution(
                "none", klass, detail="reduction is insoluble in this class"
            )
        return ClassSolution(
            "anomaly",
            klass,
            detail="reduction degenerated at numeric precision",
        )

    try:
        lam = -(A.inv() * B)
    except SplitAlgebraError as exc:
        return ClassSolution("anomaly", klass, detail=str(exc))

    if klass.exact:
        if lam.in_class(T, N) and g(lam).is_zero:
            return ClassSolution("point", klass, point=lam)
        return ClassSolution(
            "anomaly", klass, detail="candidate failed exact verification"
        )
    # round the candidate to the class precision, then judge it by exact
    # re-evaluation of the original coefficients at the rounded point
    field = g.spec.field
    lam = g.spec.element(*(field.scalar(c.to_real(precision)) for c in lam.coords()))
    return _numeric_point(g, sizes, klass, lam, tolerance)


def roots(
    g: Poly,
    mode: str = "exact",
    precision: int = DEFAULT_PRECISION,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[ClassSolution]:
    """All class solutions of g = 0, in deterministic class order."""
    if not isinstance(g.spec, QuatSpec):
        raise UnsupportedAlgebraError("root solving needs a quaternion algebra")
    if g.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no root structure")
    if g.degree == 0:
        return []
    C = companion(g)
    classes = extract_classes(C, mode=mode, precision=precision)
    return [solve_in_class(g, k, tolerance=tolerance) for k in classes]
