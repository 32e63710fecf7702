"""Root finding for quaternion left polynomials via the companion polynomial.

conj(g)*g always has coefficients in the ground field.  Over a real-embedded
field its roots pair off into quadratics x^2 - T*x + N, and each pair (T, N)
is a candidate conjugacy class for the roots of g: inside the class the
identity z^2 = T*z - N rewrites every power of z as p*z + q with central p, q,
collapsing g(z) = 0 to the linear equation A*z + B = 0.  That equation is
either trivial (the whole class consists of roots), insoluble (the class
contains none), or pins the unique root of g in the class.

Class extraction has two backends behind an explicit mode flag:

  exact    rational ground field only.  The monic companion is rescaled to a
           monic integer polynomial and its monic linear and quadratic factors
           are enumerated by divisor search (constant terms divide the
           constant term, values at 1 and -1 divide the polynomial's values
           there) with exact trial division.  An unfactorable remainder means
           the remaining classes are irrational: ClassSearchIncompleteError
           is raised, pointing at numeric mode.

  numeric  any ground field with a real embedding.  Companion coefficients
           are embedded at the requested bit precision, all roots are found
           by simultaneous iteration, and the class data (T, N) is lifted
           back to exact rationals, so the reduction and every residual are
           afterwards computed exactly from the approximate class data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .aberth import aberth_roots, mpf_to_fraction
from .errors import (
    ClassSearchIncompleteError,
    ConvergenceError,
    SplitAlgebraError,
    UnsupportedAlgebraError,
    ZeroPolynomialError,
)
from .polynomials import Poly
from .quaternions import QuatSpec, Quaternion
from .scalars import FieldSpec, Scalar

DEFAULT_PRECISION = 128
DEFAULT_TOLERANCE = 1e-9


class CentralPoly:
    """Polynomial with all coefficients in the ground field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs=()) -> None:
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("CentralPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Scalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def __call__(self, value) -> Scalar:
        value = self.field.coerce(value)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, CentralPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def render(self) -> str:
        if not self.coeffs:
            return "(0)"
        parts = []
        for p in range(self.degree, -1, -1):
            c = self.coeffs[p]
            if not c:
                continue
            suffix = "" if p == 0 else ("*x" if p == 1 else f"*x^{p}")
            parts.append(f"({c.render()}){suffix}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{self.render()} over {self.field}>"


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class candidate, identified by trace and norm."""

    trace: Scalar
    norm: Scalar
    exact: bool = True
    precision: int | None = None

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
    residual: float | None = None
    detail: str = ""


def companion(g: Poly) -> CentralPoly:
    """conj(g)*g, coerced into the ground field."""
    if not isinstance(g.spec, QuatSpec):
        raise UnsupportedAlgebraError("companion polynomials need a quaternion algebra")
    if g.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no companion")
    prod = g.conj_coeffs() * g
    coeffs = []
    for c in prod.coeffs:
        if not c.is_central:
            raise AssertionError("companion coefficient left the ground field")
        coeffs.append(c.a)
    return CentralPoly(g.spec.field, coeffs)


# -- exact class extraction ----------------------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [d * prime**k for d in divs for k in range(mult + 1)]
    return sorted(divs)

def _div_linear(D: list[int], m: int) -> tuple[list[int], int]:
    """Divide the monic integer polynomial D by (y - m)."""
    n = len(D) - 1
    q = [0] * n
    q[n - 1] = D[n]
    for k in range(n - 1, 0, -1):
        q[k - 1] = D[k] + m * q[k]
    return q, D[0] + m * q[0]


def _div_quadratic(D: list[int], t: int, u: int) -> list[int] | None:
    """Divide the monic integer polynomial D by y^2 - t*y + u, or None."""
    n = len(D) - 1
    rem = list(D)
    q = [0] * (n - 1)
    for k in range(n - 2, -1, -1):
        lead = rem[k + 2]
        q[k] = lead
        rem[k + 2] = 0
        rem[k + 1] += t * lead
        rem[k] -= u * lead
    if rem[0] == 0 and rem[1] == 0:
        return q
    return None


def _eval_int(D: list[int], x: int) -> int:
    acc = 0
    for c in reversed(D):
        acc = acc * x + c
    return acc


def _root_bound(D: list[int]) -> int:
    return 1 + max(abs(c) for c in D[:-1]) if len(D) > 1 else 1


def _exact_classes(C: CentralPoly) -> list[ConjClass]:
    if not C.field.is_rational:
        raise UnsupportedAlgebraError(
            "exact class extraction is only available over the rationals"
        )
    if C.degree < 1:
        return []
    monic = [c.a / C.coeffs[-1].a for c in C.coeffs]
    s = 1
    for c in monic:
        s = s * c.denominator // math.gcd(s, c.denominator)
    n = len(monic) - 1
    D = [int(monic[i] * s ** (n - i)) for i in range(n + 1)]

    found: list[tuple[Fraction, Fraction]] = []

    def record_linear(m: int) -> None:
        mu = Fraction(m, s)
        found.append((2 * mu, mu * mu))

    def record_quadratic(t: int, u: int) -> None:
        found.append((Fraction(t, s), Fraction(u, s * s)))

    while len(D) > 1 and D[0] == 0:
        record_linear(0)
        D = D[1:]

    # monic linear factors: integer roots dividing the constant term
    changed = True
    while changed and len(D) > 1:
        changed = False
        bound = _root_bound(D)
        for m0 in _divisors(D[0]):
            if m0 > bound:
                break
            for m in (m0, -m0):
                q, r = _div_linear(D, m)
                while r == 0:
                    record_linear(m)
                    D = q
                    changed = True
                    if len(D) == 1:
                        break
                    q, r = _div_linear(D, m)
                if len(D) == 1:
                    break
            if changed or len(D) == 1:
                break

    # monic quadratic factors y^2 - t*y + u: u divides D(0), 1 - t + u
    # divides D(1), 1 + t + u divides D(-1); roots obey the root bound
    while len(D) > 2:
        bound = _root_bound(D)
        d1 = _eval_int(D, 1)
        dm1 = _eval_int(D, -1)
        hit = None
        for u0 in _divisors(D[0]):
            if u0 > bound * bound:
                break
            for u in (u0, -u0):
                for v0 in _divisors(d1):
                    for v in (v0, -v0):
                        t = 1 + u - v
                        if abs(t) > 2 * bound:
                            continue
                        w = 1 + t + u
                        if w == 0 or dm1 % w != 0:
                            continue
                        quo = _div_quadratic(D, t, u)
                        if quo is not None:
                            hit = (t, u, quo)
                            break
                    if hit:
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            break
        t, u, D = hit
        record_quadratic(t, u)

    classes = _dedup_sorted(
        [
            ConjClass(C.field.scalar(T), C.field.scalar(N))
            for (T, N) in found
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


# -- numeric class extraction ------------------------------------------------------


def _numeric_classes(C: CentralPoly, precision: int) -> list[ConjClass]:
    import mpmath  # imported here so that exact-only runs never load it

    if not C.field.has_real_embedding:
        raise UnsupportedAlgebraError(
            "numeric class extraction needs a real-embedded ground field"
        )
    if C.degree < 1:
        return []
    fracs = [c.to_real(precision + 32) for c in C.coeffs]
    zs = aberth_roots(fracs, precision=precision)
    reals: list[Fraction] = []
    upper = []
    lower = 0
    with mpmath.workprec(precision + 64):
        for z in zs:
            im_tol = mpmath.ldexp(1, -(precision // 2)) * (1 + abs(z))
            if abs(z.imag) <= im_tol:
                reals.append(mpf_to_fraction(z.real))
            elif z.imag > 0:
                upper.append((mpf_to_fraction(z.real), mpf_to_fraction(z.imag)))
            else:
                lower += 1
    if lower != len(upper):
        raise ConvergenceError("conjugate pairing of numeric roots failed")

    found: list[tuple[Fraction, Fraction]] = []
    for mu in reals:
        found.append((2 * mu, mu * mu))
    for re, im in upper:
        found.append((2 * re, re * re + im * im))

    # merge classes that coincide up to the attainable numeric accuracy
    found.sort()
    merge_tol = 2.0 ** (-(precision // 2) + 4)
    merged: list[tuple[Fraction, Fraction]] = []
    for T, N in found:
        if merged:
            T0, N0 = merged[-1]
            scale = 1 + abs(float(T0)) + abs(float(N0))
            if abs(float(T - T0)) <= merge_tol * scale and abs(
                float(N - N0)
            ) <= merge_tol * scale:
                continue
        merged.append((T, N))
    return [
        ConjClass(
            C.field.scalar(T), C.field.scalar(N), exact=False, precision=precision
        )
        for (T, N) in merged
    ]


def extract_classes(
    C: CentralPoly, mode: str = "exact", precision: int = DEFAULT_PRECISION
) -> list[ConjClass]:
    """Candidate conjugacy classes (T, N) from a central polynomial."""
    if mode == "exact":
        return _exact_classes(C)
    if mode == "numeric":
        return _numeric_classes(C, precision)
    raise ValueError(f"unknown mode {mode!r}")


# -- per-class solving ------------------------------------------------------------


def _magnitude(z: Quaternion) -> float:
    return math.sqrt(sum(float(c) ** 2 for c in z.coords()))


def _coeff_scale(g: Poly) -> float:
    return max((_magnitude(c) for c in g.coeffs), default=0.0)


def solve_in_class(
    g: Poly, klass: ConjClass, tolerance: float = DEFAULT_TOLERANCE
) -> ClassSolution:
    """Reduce g = 0 inside one conjugacy class to a linear equation and solve.

    Central candidate classes (discriminant zero) are checked by direct
    substitution instead; the reduction degenerates there.
    """
    if not isinstance(g.spec, QuatSpec):
        raise UnsupportedAlgebraError("class solving needs a quaternion algebra")
    T, N = klass.trace, klass.norm

    if klass.is_central:
        mu = T / 2
        lam = g.spec.coerce(mu)
        value = g(lam)
        if klass.exact:
            if value.is_zero:
                return ClassSolution("point", klass, point=lam)
            return ClassSolution(
                "none", klass, detail="central candidate is not a root"
            )
        residual = _magnitude(value)
        if residual <= tolerance * (1 + _coeff_scale(g)):
            return ClassSolution("point", klass, point=lam, residual=residual)
        return ClassSolution(
            "none",
            klass,
            residual=residual,
            detail="central candidate residual above tolerance",
        )

    # z^k = p_k z + q_k inside the class, by z^2 = T z - N
    p, q = g.spec.field.zero(), g.spec.field.one()
    A, B = g.spec.zero(), g.spec.zero()
    for c in g.coeffs:
        A = A + c * p
        B = B + c * q
        p, q = T * p + q, -N * p

    if klass.exact:
        a_zero, b_zero = A.is_zero, B.is_zero
    else:
        ztol = 2.0 ** (-(klass.precision or DEFAULT_PRECISION) // 2 + 8)
        scale = (1 + _coeff_scale(g)) * (1 + abs(float(T)) + abs(float(N)))
        a_zero = _magnitude(A) <= ztol * scale
        b_zero = _magnitude(B) <= ztol * scale

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
    bits = klass.precision or DEFAULT_PRECISION
    field = g.spec.field
    lam = g.spec.element(*(field.scalar(c.to_real(bits)) for c in lam.coords()))
    residual = _magnitude(g(lam))
    if residual <= tolerance * (1 + _coeff_scale(g)):
        return ClassSolution("point", klass, point=lam, residual=residual)
    return ClassSolution(
        "anomaly",
        klass,
        residual=residual,
        detail="candidate residual above tolerance",
    )


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
