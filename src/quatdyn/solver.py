"""Root finding for quaternion left polynomials via the companion polynomial.

conj(g)*g always has coefficients in the ground field.  Over a real-embedded
field its roots pair off into quadratics x^2 - T*x + N, and each pair (T, N)
is a candidate conjugacy class for the roots of g: inside the class the
identity z^2 = T*z - N rewrites every power of z as p*z + q with central p, q,
collapsing g(z) = 0 to the linear equation A*z + B = 0.  That equation is
either trivial (the whole class consists of roots), insoluble (the class
contains none), or pins the unique root of g in the class.

Class extraction is one pipeline with two policies.  Both start from the
squarefree part c / gcd(c, c') of the companion: over Q on its integer
coefficients by `_arith`'s modular gcd; over Q(sqrt d) by Euclid, with monic
divisors, since unnormalized remainders carry their leading coefficient in
every coefficient and swell.

  exact    rational ground field only, and algebraic throughout: the classes
           are the factors of degree <= 2 over Q of the primitive integer
           companion f, found among the candidates that `_arith` lifts from
           the squarefree part's factors mod p.  Exact trial division of f
           decides each candidate, linear ones first; a remainder left has
           no factor of degree <= 2 over Q, and ClassSearchIncompleteError
           points at numeric mode.
  numeric  any ground field with a real embedding.  The squarefree part,
           in units of 2**-(precision + 32), goes to `aberth`, which finds
           its roots, certifies their disks and snaps them to class data
           (see its docstring).  The reduction and every residual are
           afterwards computed exactly from that approximate class data.

Per-class solving has the same two policies over one reduction
(`Poly.reduction`) and one point, -A**-1 * B by the kernel's one inverse
rule (`_class_point`).  Exact mode tests A and B for zero exactly
and verifies the unrounded point.  Numeric mode counts A or B as zero
relative to the size of the terms summed into it, rounds the point once to
the class precision and judges it by its exact residual.  A sphere's
quadratic divides g, so its square divides the companion; and A = 0 at a
class of the companion forces N(B) = 0, so B = 0 in a division algebra.  So
when the companion is squarefree, numeric mode skips the zero tests, and an
A of norm zero raises SplitAlgebraError, as in exact mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from ._arith import _candidates, _integer_squarefree, _primitive, _quotient
from ._kernel import PATHS, Element, left_quotient
from .aberth import aberth_roots, class_data
from .errors import (
    ClassSearchIncompleteError,
    SplitAlgebraError,
    UnsupportedAlgebraError,
    ZeroPolynomialError,
)
from .polynomials import Poly, divmod_monic
from .quaternions import QuatSpec
from .scalars import Scalar, nearest

DEFAULT_PRECISION = 128
DEFAULT_TOLERANCE = 1e-9
# the largest precision the command line accepts: a dense numeric degree-8
# call takes about 1 s at 2048 bits and about 4 s at 4096 (2-core x86 host,
# CPython 3.11)
MAX_PRECISION = 2048


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class candidate (trace, norm); exact when it carries no precision."""

    trace: Scalar
    norm: Scalar
    precision: int | None = None
    # numeric central classes: whether every inclusion disk of the companion's
    # roots excludes the candidate T/2, so that it is no root of the companion
    excluded: bool = False
    # numeric classes: whether the companion is squarefree, so that no class is
    # a sphere and the reduction's zero tests are skipped
    squarefree: bool = False

    @property
    def exact(self) -> bool:
        return self.precision is None

    @property
    def is_central(self) -> bool:
        """Whether T*T - 4*N is zero: the class of a central candidate, T/2."""
        return self.trace * self.trace == self.norm * 4


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
    point: Element | None = None
    residual: float | int | None = None  # an int past the double range
    detail: str = ""


def companion(g: Poly) -> Poly:
    """conj(g)*g, as a polynomial over the ground field."""
    if not isinstance(g.spec, QuatSpec):
        raise UnsupportedAlgebraError("companion polynomials need a quaternion algebra")
    if g.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no companion")
    # the norm form's products land on the ground field: the other columns cancel
    form = g.spec.table.norm_form
    return Poly.from_cols(g.spec.field, form.poly_mul(g.cols, g.cols), g.den * g.den * form.den)


# -- the class-extraction pipeline ---------------------------------------------


def _monic(p: list) -> list:
    """p over its leading coefficient, inverted once; the empty list stays empty."""
    inv = p and 1 / p[-1]
    return [x * inv for x in p]


def _squarefree(coeffs) -> list:
    """Monic squarefree part c / gcd(c, c') by Euclid over Q(sqrt d), low
    degree first; over Q, `_integer_squarefree` takes it on the integers.

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


def _integer_part(f: list[int]) -> list[int]:
    """`_integer_squarefree(f)`, with the path it took counted."""
    part = _integer_squarefree(f)
    PATHS["squarefree part", "squarefree" if len(part) == len(f) else "repeated"] += 1
    return part


def _exact_classes(C: Poly) -> list[ConjClass]:
    f = _primitive(C.cols[0])
    zeros = next(i for i, c in enumerate(f) if c)
    f, found, candidates = f[zeros:], [(Fraction(0), Fraction(0), False)] * zeros, []
    if len(f) > 1:
        p, candidates = _candidates(_integer_part(f))
        PATHS["local prime", p] += 1
    # linear candidates go first, so a quadratic that divides is irreducible
    for h in candidates:
        while h[0] and not f[0] % h[0] and (q := _quotient(f, h)) is not None:
            k = h if len(h) == 3 else [h[0] * h[0], 2 * h[0] * h[1], h[1] * h[1]]  # (h_1*y + h_0)**2
            found.append((Fraction(-k[1], k[2]), Fraction(k[0], k[2]), False))
            f = q
    classes = _classes(C.spec, found)
    if len(f) > 1:
        raise ClassSearchIncompleteError(
            f"companion has an irrational remainder of degree {len(f) - 1}; "
            "use numeric mode",
            classes=classes,
            remainder_degree=len(f) - 1,
        )
    return classes


def _classes(field, found, **numeric) -> list[ConjClass]:
    """The classes over field of the triples (T, N, excluded) of rationals, each
    (T, N) once, with its first triple's `excluded` (written last), sorted by (T, N)."""
    unique = {(T, N): excluded for T, N, excluded in reversed(found)}
    return [
        ConjClass(field.scalar(T), field.scalar(N), excluded=excluded, **numeric)
        for (T, N), excluded in sorted(unique.items())
    ]


def _numeric_classes(C: Poly, precision: int) -> list[ConjClass]:
    # the monic squarefree part, rounded to units of 2**-(precision + 32)
    bits = precision + 32
    if C.spec.is_rational:
        part = _integer_part(C.cols[0])
        P = [nearest(None, (c,), part[-1], bits) for c in part]
    else:
        P = [nearest(C.spec.d, c.nums, c.den, bits) for c in _squarefree(C.coeffs)]
    found = class_data(P, aberth_roots(P, precision=precision), precision)
    return _classes(C.spec, found, precision=precision, squarefree=len(P) == C.degree + 1)


def _resolving_precision(C: Poly, mu: Scalar, precision: int) -> int:
    """An estimate of the precision at which numeric extraction tells the
    roots of C near mu apart from mu, for a candidate mu with C(mu) != 0.

    With a_k the Taylor coefficients of C at mu, the coefficients of
    C(y + mu) (one `Poly.compose`), the roots lie at least
    L = min |a_0 / a_k|^(1/k) / 2 from mu (Fujiwara's bound).  The ladder
    tells them apart from mu once the rounding of the monic coefficients to
    2**-(p + 32), which moves the value at mu by up to 2**-(p + 32) *
    sum |mu|^k, stays 16 bits below |a_0 / lead|, and once the test for a
    real root, |Im z| <= 2**-(p/2), is finer than L.  The estimate is at
    least twice `precision`, which did not suffice.
    """
    taylor = C.compose(Poly(C.spec, [mu, 1])).coeffs
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
    """Candidate conjugacy classes (T, N) from a polynomial over the ground
    field: exact mode needs Q, numeric mode a real embedding."""
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    if not (C.spec.is_rational if exact else C.spec.has_real_embedding):
        raise UnsupportedAlgebraError(
            "exact class extraction is only available over the rationals"
            if exact
            else "numeric class extraction needs a real-embedded ground field"
        )
    if C.degree < 1:
        return []
    return _exact_classes(C) if exact else _numeric_classes(C, precision)


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
    g: Poly, sizes: list[Dyadic], klass: ConjClass, lam: Element, tolerance: Fraction
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


def _class_point(A: Element, B: Element, bits: int | None = None) -> Element:
    """The class's point -A**-1 * B (`_kernel.left_quotient`, unreduced), exact or
    each coordinate rounded once to the nearest multiple of 2**-bits, ties to even."""
    nums, den = left_quotient(A.spec, A.nums, B.nums)
    # A = x / A.den and B = y / B.den give A**-1 * B = A.den * x**-1 * y / B.den
    nums, den = [v * -A.den for v in nums], den * B.den
    if bits is None:
        return type(A)(A.spec, nums, den)
    w, d = A.spec.table.width, A.spec.field.d
    rounded = [0] * len(nums)  # rational coordinates: no sqrt(d) parts
    for k in range(0, len(nums), w):
        rounded[k] = nearest(d, nums[k : k + w], den, bits)
    return type(A)(A.spec, rounded, 1 << bits)


def solve_in_class(
    g: Poly, klass: ConjClass, tolerance: float = DEFAULT_TOLERANCE
) -> ClassSolution:
    """Reduce g = 0 inside one conjugacy class to a linear equation and solve.

    Central candidate classes (T*T = 4*N) are checked by direct
    substitution instead; the reduction degenerates there.  An exact class is
    decided by exact zero tests; in a numeric one a quantity counts as zero,
    and a point as a root, relative to the size of the terms summed into it.
    """
    if not isinstance(g.spec, QuatSpec):
        raise UnsupportedAlgebraError("class solving needs a quaternion algebra")
    try:
        return _solve_exact(g, klass) if klass.exact else _solve_numeric(g, klass, tolerance)
    except SplitAlgebraError as exc:
        return ClassSolution("anomaly", klass, detail=str(exc))


def _solve_exact(g: Poly, klass: ConjClass) -> ClassSolution:
    T, N = klass.trace, klass.norm
    if klass.is_central:
        lam = g.spec.coerce(T / 2)
        if g(lam).is_zero:
            return ClassSolution("point", klass, point=lam)
        return ClassSolution(
            "none", klass, detail="central candidate is not a root"
        )
    # z^k = p_k z + q_k inside the class, so g(z) = A z + B
    A, B = g.reduction(T, N)
    if A.is_zero:
        if B.is_zero:
            return ClassSolution("sphere", klass)
        return ClassSolution(
            "none", klass, detail="reduction is insoluble in this class"
        )
    lam = _class_point(A, B)
    if lam.in_class(T, N) and g(lam).is_zero:
        return ClassSolution("point", klass, point=lam)
    return ClassSolution(
        "anomaly", klass, detail="candidate failed exact verification"
    )


def _solve_numeric(g: Poly, klass: ConjClass, tolerance: float) -> ClassSolution:
    T, N = klass.trace, klass.norm
    sizes, tolerance = [_size(c) for c in g.coeffs], Fraction(tolerance)
    if klass.is_central:
        lam = g.spec.coerce(T / 2)
        sol = _numeric_point(g, sizes, klass, lam, tolerance)
        if sol.kind != "none" or klass.excluded:
            return sol
        # the candidate may still be a root of the companion that the working
        # precision could not resolve: no claim of absence
        bits = _resolving_precision(companion(g), T / 2, klass.precision)
        beyond = f", above the cap of {MAX_PRECISION} bits" if bits > MAX_PRECISION else ""
        return replace(
            sol,
            kind="anomaly",
            detail=f"central candidate residual above tolerance, and the inclusion disks at "
            f"{klass.precision} bits do not exclude it; about {bits} bits would resolve the "
            f"class{beyond}",
        )
    A, B = g.reduction(T, N)
    if not klass.squarefree:
        ztol = Fraction(2) ** (-klass.precision // 2 + 8)
        a_scale, b_scale = _reduction_scales(sizes, T, N)
        if _within(A, ztol, a_scale):
            if _within(B, ztol, b_scale):
                return ClassSolution("sphere", klass)
            return ClassSolution(
                "anomaly",
                klass,
                detail="reduction degenerated at numeric precision",
            )
    # the point rounded to the class precision, then judged by exact
    # re-evaluation of the original coefficients there
    return _numeric_point(g, sizes, klass, _class_point(A, B, klass.precision), tolerance)


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
