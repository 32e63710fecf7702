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
coefficients by Brown's modular gcd, images mod word-size primes joined by
CRT and kept only when exact division proves them; over Q(sqrt d) by
Euclid, with monic divisors, since unnormalized remainders carry their
leading coefficient in every coefficient and swell.

  exact    rational ground field only, and algebraic throughout: the classes
           are the factors of degree <= 2 over Q of the primitive integer
           companion f.  Modulo a prime p that keeps the squarefree part P
           squarefree, P's roots in F_p and its irreducible quadratics come
           from gcds with y**p - y and y**(p**2) - y, split by one
           Cantor-Zassenhaus loop, and Newton's iteration lifts their roots
           p-adically far enough that symmetric residues give the integer
           data of every such factor.  Exact trial division of f decides
           each candidate, linear ones first; a remainder left has no factor
           of degree <= 2 over Q, and ClassSearchIncompleteError points at
           numeric mode.
  numeric  any ground field with a real embedding.  The squarefree part,
           in units of 2**-(precision + 32), goes to the Aberth ladder of
           `aberth.aberth_roots` (rungs of doubling precision on Gaussian
           integers from a narrow first one), which climbs to the requested
           precision plus 64 bits.  A root is near-real when its imaginary
           part is within 2**-(precision/2) * (1 + |z|) and its inclusion
           disk, which covers the rounding too, meets the real axis, with
           one verdict per conjugate pair.  Near-real roots give central
           classes (2*mu, mu^2), conjugate pairs give (T, N), each snapped
           to the simplest rational within the root's inclusion disk.  The
           reduction and every residual are afterwards computed exactly
           from that approximate class data.

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
from itertools import count
from math import isqrt

from ._kernel import PATHS, Element, left_quotient
from .aberth import aberth_roots, inclusion_radii, sqrt_up, to_grid
from .errors import (
    ClassSearchIncompleteError,
    ConvergenceError,
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


def _integer_squarefree(f: list[int]) -> list[int]:
    """The primitive squarefree part f / gcd(f, f') of a nonconstant integer
    polynomial, low degree first, with the sign of f's lead.

    Brown's modular gcd (J. ACM 18, 1971) of f and g = f'/content: monic gcds
    mod primes that divide neither lead, scaled to gcd(lead f, lead g).  An
    image has at least the true degree, so one of degree 0 proves f
    squarefree and one above the lowest seen is dropped.  The rest join by
    CRT, in symmetric residues, until a prime leaves the join unchanged and
    its primitive part divides f and g exactly: then it is the gcd.
    """
    f = _primitive(f)
    g = _primitive([i * c for i, c in enumerate(f)][1:])
    scale, image, m = math.gcd(f[-1], g[-1]), [], 1
    for p in map(_prime, count()):
        if not (f[-1] % p and g[-1] % p):
            continue
        h = _gf_gcd(_gf(f, p), _gf(g, p), p)
        if len(h) == 1:
            PATHS["squarefree part", "squarefree"] += 1
            return f
        if not image or len(h) < len(image):
            image, m = [0] * len(h), 1
        elif len(h) > len(image):
            continue
        # Garner's step: the residue mod m*p that is v mod m and scale*c mod p
        inv = pow(m, -1, p)
        steps = [(scale * c - v) * inv % p for v, c in zip(image, h)]
        if any(steps):
            image, m = [v + m * t for v, t in zip(image, steps)], m * p
            image = [v - m if 2 * v > m else v for v in image]
            continue
        h = _primitive(image if image[-1] > 0 else [-v for v in image])
        if (part := _quotient(f, h)) is not None and _quotient(g, h) is not None:
            PATHS["squarefree part", "repeated"] += 1
            return part


def _primitive(f: list[int]) -> list[int]:
    """The nonzero f over the gcd of its coefficients."""
    c = math.gcd(*f)
    return f if c == 1 else [v // c for v in f]


def _quotient(f: list[int], h: list[int]) -> list[int] | None:
    """f / h when h divides f over Z, else None."""
    n, lead = len(h) - 1, h[-1]
    if len(f) <= n:
        return None
    r, q = list(f), [0] * (len(f) - n)
    for k in reversed(range(len(q))):
        c, rest = divmod(r[k + n], lead)
        if rest:
            return None
        if c:
            q[k] = c
            for i, v in enumerate(h[:n]):
                r[k + i] -= c * v
    return None if any(r[:n]) else q


# -- arithmetic mod p: the modular gcd and the exact classes ----------------------


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the primes below 2**30 (one CPython digit: the fastest), downwards, found once
_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve prime bases up to 37, exact below
    3.18 * 10**23 (Sorenson & Webster 2017), so on every word-size n."""
    if n < 41 or any(not n % a for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _WITNESSES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in [pow(x, 1 << i, n) for i in range(s)]:
            return False
    return True


def _prime(k: int) -> int:
    """The k-th prime below 2**30, counting down, from k = 0."""
    while len(_PRIMES) <= k:
        top = _PRIMES[-1] - 2 if _PRIMES else (1 << 30) - 1
        _PRIMES.append(next(q for q in range(top, 0, -2) if _is_prime(q)))
    return _PRIMES[k]


def _gf(a: list[int], p: int) -> list[int]:
    """a mod p, without trailing zeros."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p, for a lead of b prime to p;
    a may be unreduced, and then the quotient may end in zeros."""
    n, r, inv = len(b) - 1, list(a), pow(b[-1], -1, p)
    q = [0] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + n] * inv % p
        if c:
            r[k : k + n] = [x - c * y for x, y in zip(r[k : k + n], b)]
    return q, _gf(r[:n], p)


def _gf_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    """a*b modulo m over F_p, by the plain convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        out[i : i + len(b)] = [v + x * y for v, y in zip(out[i : i + len(b)], b)]
    return _gf_divmod(out, m, p)[1]


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of a nonzero a and any b, both reduced mod p."""
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_power(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a**e modulo m over F_p, for e >= 2."""
    out = a
    for bit in bin(e)[3:]:
        out = _gf_mulmod(out, out, m, p)
        out = _gf_mulmod(out, a, m, p) if bit == "1" else out
    return out


def _local_factors(P: list[int]) -> tuple[int, list[int], list[list[int]]]:
    """The first prime p from 11 on that does not divide P's lead and keeps P
    squarefree mod p, P's roots in F_p, in order, and its monic irreducible
    quadratic factors over F_p.

    The product of P's factors of degree d is gcd(P, y**(p**d) - y) once those
    of lower degree are divided out.  One Cantor-Zassenhaus loop splits it for
    d = 1 and 2: modulo a factor h of degree d, (y + c)**((p**d - 1)/2) is the
    Legendre symbol of the norm of y + c, (-1)**d * h(-c), and two factors
    differ in it at some c in F_p (for d = 2 above 9, by Weil's bound)."""
    p, derivative = 11, [i * c for i, c in enumerate(P)][1:]
    while not (P[-1] % p and _is_prime(p)) or len(_gf_gcd(_gf(P, p), _gf(derivative, p), p)) > 1:
        p += 2
    rest, w, pieces, found = _gf(P, p), [0, 1], [], ([], [])
    for d in (1, 2):
        w = _gf_power(w, p, rest, p) + [0, 0]  # y**(p**d) modulo rest
        frob = w if d == 1 else frob  # y**p modulo P
        G = _gf_gcd(rest, _gf([w[0], w[1] - 1] + w[2:], p), p)
        rest = _gf_divmod(rest, G, p)[0]
        pieces += [(G, d, 0)] if len(G) > 1 else []
    while pieces:
        h, d, c = pieces.pop()
        if len(h) == d + 1:
            found[d - 1].append(h)
            continue
        # that symbol as N**((p - 1)/2) for the norm N: y + c, or (y + c)*(y**p + c)
        norm = [c, 1] if d == 1 else _gf_mulmod([c, 1], [frob[0] + c] + frob[1:], h, p)
        w = _gf_power(norm, (p - 1) // 2, h, p)
        s = _gf_gcd(h, _gf([w[0] - 1] + w[1:], p), p)
        split = [s, _gf_divmod(h, s, p)[0]] if 1 < len(s) < len(h) else [h]
        pieces += [(piece, d, c + 1) for piece in split]
    PATHS["local prime", p] += 1
    return p, sorted(-h[0] % p for h in found[0]), found[1]


def _lift(P: list[int], a: int, b: int, x: tuple[int, int], p: int, m: int) -> tuple[int, int]:
    """Newton's iteration on P from its simple root x = x0 + x1*Y mod p, in
    (Z/q)[Y]/(Y**2 - a*Y + b) for q = p**2, p**4, ... up to m.  A root in
    F_p has a = b = x1 = 0.  A unit u has the inverse conj(u)/N(u), with
    conj(Y) = a - Y, the other root of Y**2 - a*Y + b."""
    (x0, x1), q = x, p
    while q < m:
        q *= q
        v0 = v1 = d0 = d1 = 0  # P and P' at x by Horner
        for c in reversed(P):
            d0, d1 = (d0 * x0 - b * d1 * x1 + v0) % q, (d0 * x1 + d1 * x0 + a * d1 * x1 + v1) % q
            v0, v1 = (v0 * x0 - b * v1 * x1 + c) % q, (v0 * x1 + v1 * x0 + a * v1 * x1) % q
        inv = pow(d0 * d0 + a * d0 * d1 + b * d1 * d1, -1, q)
        e0, e1 = (d0 + a * d1) * inv, -d1 * inv  # 1/P'(x)
        x0, x1 = (x0 - v0 * e0 + b * v1 * e1) % q, (x1 - v0 * e1 - v1 * e0 - a * v1 * e1) % q
    return x0, x1


def _candidates(P: list[int]) -> list[list[int]]:
    """Primitive integer polynomials, of degree 1 and then 2, among them
    every factor of degree <= 2 over Q of the squarefree P.  Such a factor's
    lead divides l = P's lead (Gauss's lemma), so l*T and l*N of its roots are
    integers below |l|*(B + 1)**2, B being Cauchy's bound on the roots; and
    they are the symmetric residues of those of its one or two local factors,
    whose roots Hensel-lift uniquely modulo m > 2*|l|*(B + 1)**2."""
    p, roots, quadratics = _local_factors(P)
    lead, B = P[-1], 1 - max(map(abs, P[:-1])) // -abs(P[-1])
    m = p
    while m <= 2 * abs(lead) * (B + 1) ** 2:
        m *= m

    def scaled(v: int) -> int:  # l*v as a symmetric residue
        return (v * lead + m // 2) % m - m // 2

    lifted = [_lift(P, 0, 0, (r, 0), p, m)[0] for r in roots]
    pairs = [(r + s, r * s) for k, r in enumerate(lifted) for s in lifted[k + 1 :]]
    for q in quadratics:
        a, b = -q[1] % p, q[0]
        x0, x1 = _lift(P, a, b, (0, 1), p, m)
        pairs.append((2 * x0 + a * x1, x0 * x0 + a * x0 * x1 + b * x1 * x1))
    linear = [_primitive([-scaled(r), lead]) for r in lifted]
    return linear + [_primitive([scaled(N), -scaled(T), lead]) for T, N in pairs]


def _exact_classes(C: Poly) -> list[ConjClass]:
    f = _primitive(C.cols[0])
    zeros = next(i for i, c in enumerate(f) if c)
    f, found = f[zeros:], [(Fraction(0), Fraction(0), False)] * zeros
    # linear candidates go first, so a quadratic that divides is irreducible
    for h in _candidates(_integer_squarefree(f)) if len(f) > 1 else []:
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
    # the monic squarefree part, rounded to units of 2**-(precision + 32)
    bits = precision + 32
    if C.spec.is_rational:
        part = _integer_squarefree(C.cols[0])
        P = [nearest(None, (c,), part[-1], bits) for c in part]
    else:
        P = [nearest(C.spec.d, c.nums, c.den, bits) for c in _squarefree(C.coeffs)]
    squarefree = len(P) == C.degree + 1
    zs = aberth_roots(P, precision=precision)
    E, pts = to_grid(zs, precision + 64)
    # the disks also cover that rounding: one unit in each coefficient
    radii = inclusion_radii(P, E, pts, 1, zs, precision // 2)
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
            q = re * re + im * im
            modulus = sqrt_up(q.numerator, q.denominator)
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
    return _classes(C.spec, found, precision=precision, squarefree=squarefree)


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
