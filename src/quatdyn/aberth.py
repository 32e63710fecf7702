"""Simultaneous root iteration on a precision ladder, and certified disks.

`aberth_roots` runs the Aberth-Ehrlich iteration, updating each approximant
in place (Gauss-Seidel), on a ladder of precisions (Bini & Fiorentino 2000,
MPSolve).  The first rung runs in Python `complex` arithmetic on a copy of the
monic polynomial whose variable is scaled by a power of two, so that its
roots have modulus near 1 and its coefficients fit a double; it starts on the
circle of radius |c0|**(1/n).  Each later rung runs in mpmath at twice the
previous precision, starting from the previous rung's approximants, up to
`precision + 64` bits.  Roots of multiplicity above one converge only
linearly and to about half the working precision, so callers pass squarefree
polynomials.

`to_grid` rounds approximants to a common fixed-point grid, and
`inclusion_radii` bounds, in exact rational arithmetic, the Weierstrass
radii n*|P(z_k)| / |prod_{j != k} (z_k - z_j)| there.  Where those disks are
pairwise disjoint, each contains exactly one root (Braess & Hadeler 1973).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt
from typing import Callable, Sequence

from .errors import ConvergenceError

FLOAT_BITS = 53
# relative step at which the float rung hands over to the first mpmath rung
FLOAT_EPS = 2.0**-42


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a binary float."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    n = -man if sign else man
    if exp >= 0:
        return Fraction(n << exp)
    return Fraction(n, 1 << -exp)


def _exact(x) -> Fraction:
    return Fraction(x) if isinstance(x, float) else mpf_to_fraction(x)


def _log2(q: Fraction) -> int:
    """floor(log2 |q|) up to one, for nonzero q."""
    return abs(q.numerator).bit_length() - q.denominator.bit_length()


def _horner(coeffs, z):
    p = coeffs[-1]
    dp = 0
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _iterate(poly, zs, eps, max_iterations) -> None:
    """Gauss-Seidel Aberth sweeps over zs, in place, until every relative
    step is at most eps or the budget runs out."""
    n = len(zs)
    for _ in range(max_iterations):
        worst = 0
        for k in range(n):
            z = zs[k]
            p, dp = _horner(poly, z)
            if not p:
                continue
            if not dp:
                zs[k] = z + (1 + abs(z)) * (1 + 1j) / 16
                worst = 1
                continue
            w = p / dp
            s = 0
            for j in range(n):
                d = z - zs[j]
                if j != k and d:
                    s += 1 / d
            denom = 1 - w * s
            step = w if not denom else w / denom
            zs[k] = z - step
            err = abs(step) / (1 + abs(z))
            if err > worst:
                worst = err
        if worst <= eps:
            return


def _float_rung(monic: list[Fraction], max_iterations: int) -> list[complex] | None:
    """Roots of a monic polynomial with a nonzero constant term in doubles,
    or None when the scaled coefficients or the roots leave the double range."""
    n = len(monic) - 1
    k = _log2(monic[0]) // n  # 2**k is about the geometric mean of the moduli
    try:
        poly = [float(c * Fraction(2) ** (k * (i - n))) for i, c in enumerate(monic)]
    except OverflowError:
        return None
    radius = abs(poly[0]) ** (1 / n)
    angles = [math.pi * (2 * j + 0.5) / n for j in range(n)]
    zs = [complex(radius * math.cos(a), radius * math.sin(a)) for a in angles]
    _iterate(poly, zs, FLOAT_EPS, max_iterations)
    try:
        zs = [complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) for z in zs]
    except OverflowError:
        return None
    if all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs):
        return zs
    return None


def aberth_roots(
    coeffs: Sequence[Fraction],
    precision: int = 128,
    max_iterations: int = 400,
    accept: Callable[[list, int], bool] | None = None,
) -> list:
    """All complex roots of sum coeffs[i]*x^i, to roughly `precision` bits.

    After each rung, `accept(roots, bits)` may end the ladder early by
    returning True.  Without `accept`, the top rung's approximants must pass
    a residual test, or ConvergenceError is raised.  Roots come back as
    `complex` from the float rung and as `mpmath.mpc` from the others.
    """
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    zeros = 0
    while cs[zeros] == 0:  # roots at the origin split off exactly
        zeros += 1
    monic = [c / cs[-1] for c in cs[zeros:]]
    n = len(monic) - 1
    if n == 0:
        return [0j] * zeros

    top = max(precision, 0) + 64
    zs = _float_rung(monic, max_iterations)
    if zs is not None and accept is not None and accept([0j] * zeros + zs, FLOAT_BITS):
        return [0j] * zeros + zs

    import mpmath  # imported here so that runs settled by the float rung never load it

    bits = FLOAT_BITS
    while bits < top:
        bits = min(2 * bits, top)
        with mpmath.workprec(bits):
            poly = [mpmath.mpf(c.numerator) / c.denominator for c in monic]
            if zs is None:
                radius = abs(poly[0]) ** (mpmath.mpf(1) / n)
                zs = [radius * mpmath.expjpi(mpmath.mpf(4 * j + 1) / (2 * n)) for j in range(n)]
            else:
                zs = [mpmath.mpc(z) for z in zs]
            # below the top, a step of 2**-(k/2) leaves an error near 2**-k
            # (quadratic convergence), so the confirming sweep is skipped
            goal = bits - 56 if bits == top else (bits - 56) // 2
            _iterate(poly, zs, mpmath.ldexp(1, -goal), max_iterations)
            roots = [mpmath.mpc(0)] * zeros + zs
            if accept is not None:
                if accept(roots, bits):
                    return roots
            elif bits == top:
                bound = mpmath.ldexp(mpmath.mpf(1), -(precision // 2))
                for z in zs:
                    p, _ = _horner(poly, z)
                    scale, _ = _horner([abs(c) for c in poly], abs(z))
                    if abs(p) > bound * max(1, scale):
                        raise ConvergenceError(
                            "root iteration did not reach the requested accuracy"
                        )
    return roots


def to_grid(zs, bits: int) -> tuple[int, list[tuple[int, int]]]:
    """Round approximants to Gaussian integers over a common 2**E.

    E keeps `bits` + 16 bits of the largest modulus, so the rounding stays
    below the accuracy of a `bits`-bit rung.
    """
    parts = [(_exact(z.real), _exact(z.imag)) for z in zs]
    top = max((_log2(x) for re, im in parts for x in (re, im) if x), default=0)
    E = max(bits + 16 - top, 16)
    scale = 1 << E
    return E, [(round(re * scale), round(im * scale)) for re, im in parts]


def sqrt_up(q: Fraction) -> Fraction:
    """A dyadic rational at least sqrt(q) and within a relative 2**-60 of it."""
    if q <= 0:
        return Fraction(0)
    a, b = q.numerator, q.denominator
    k = 64 - (a.bit_length() - b.bit_length()) // 2
    if k >= 0:
        return Fraction(isqrt((a << 2 * k) // b) + 1, 1 << k)
    return Fraction((isqrt(a // (b << -2 * k)) + 1) << -k)


def inclusion_radii(
    coeffs: Sequence[Fraction],
    E: int,
    points: list[tuple[int, int]],
    error: Fraction = Fraction(0),
) -> list[Fraction] | None:
    """Upper bounds of the Weierstrass radii of the grid points (A + iB)/2**E
    as approximants of the roots of sum coeffs[i]*x^i, which must number as
    many as its degree; None when two points coincide.

    The disks also hold the roots of every polynomial whose monic form
    differs from this one's by at most `error` in each lower coefficient.
    P(z_k) times 2**(E*n) times a common denominator is a Gaussian integer,
    and so is every difference of two points, so all of it is exact.
    """
    cs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    n = len(ints) - 1
    radii = []
    for k, (A, B) in enumerate(points):
        hr, hi = ints[-1], 0
        for i in range(n - 1, -1, -1):
            hr, hi = hr * A - hi * B + (ints[i] << (E * (n - i))), hr * B + hi * A
        prod = 1
        for j, (A2, B2) in enumerate(points):
            if j != k:
                dist2 = (A - A2) ** 2 + (B - B2) ** 2
                if not dist2:
                    return None
                prod *= dist2
        value2 = Fraction(hr * hr + hi * hi, ints[-1] ** 2 << (2 * E * n))  # |P(z_k)/lead|^2
        if error:
            modulus = sqrt_up(Fraction(A * A + B * B, 1 << (2 * E)))
            value2 = (sqrt_up(value2) + error * sum(modulus**i for i in range(n))) ** 2
        radii.append(sqrt_up(n * n * value2 * (1 << (2 * E * (n - 1))) / prod))
    return radii
