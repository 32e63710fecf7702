"""Simultaneous root iteration for real-coefficient polynomials.

All approximants are updated together with the classic coupled Newton
correction; working precision is configurable so downstream consumers can ask
for as many correct bits as they need.  Multiple roots converge to a cluster
of radius about 2**(-precision/2); callers merge such clusters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ConvergenceError


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a binary float."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    n = -man if sign else man
    if exp >= 0:
        return Fraction(n << exp)
    return Fraction(n, 1 << -exp)


def _horner(coeffs, z):
    import mpmath

    p = coeffs[-1]
    dp = mpmath.mpc(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def aberth_roots(
    coeffs: Sequence[Fraction],
    precision: int = 128,
    max_iterations: int = 400,
) -> list[mpmath.mpc]:
    """All complex roots of sum coeffs[i]*x^i, to roughly `precision` bits.

    Raises ConvergenceError if the iteration budget runs out before the
    residuals certify every approximant.
    """
    import mpmath  # imported here so that exact-only runs never load it

    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    with mpmath.workprec(precision + 64):
        lead = mpmath.mpf(cs[-1].numerator) / cs[-1].denominator
        poly = [
            (mpmath.mpf(c.numerator) / c.denominator) / lead for c in cs
        ]
        roots: list[mpmath.mpc] = []
        while poly[0] == 0:  # roots at the origin split off exactly
            roots.append(mpmath.mpc(0))
            poly = poly[1:]
        n = len(poly) - 1
        if n == 0:
            return roots
        if n == 1:
            roots.append(mpmath.mpc(-poly[0]))
            return roots
        radius = 1 + max(abs(c) for c in poly[:-1])
        zs = [
            radius * mpmath.expjpi(mpmath.mpf(2 * k) / n + mpmath.mpf(1) / (2 * n))
            for k in range(n)
        ]
        eps = mpmath.ldexp(mpmath.mpf(1), -(precision + 8))
        for _ in range(max_iterations):
            worst = mpmath.mpf(0)
            new_zs = list(zs)
            for k in range(n):
                z = zs[k]
                p, dp = _horner(poly, z)
                if p == 0:
                    continue
                if dp == 0:
                    new_zs[k] = z + mpmath.ldexp(radius, -4) * (1 + 1j)
                    worst = radius
                    continue
                w = p / dp
                s = mpmath.mpc(0)
                for j in range(n):
                    if j != k:
                        s += 1 / (z - zs[j])
                denom = 1 - w * s
                step = w if denom == 0 else w / denom
                new_zs[k] = z - step
                err = abs(step) / (1 + abs(z))
                if err > worst:
                    worst = err
            zs = new_zs
            if worst <= eps:
                break
        # certify by residual; multiple roots legitimately stop short of eps
        bound = mpmath.ldexp(mpmath.mpf(1), -(precision // 2))
        for z in zs:
            p, _ = _horner(poly, z)
            scale = max(mpmath.mpf(1), sum(abs(c) * abs(z) ** i for i, c in enumerate(poly)))
            if abs(p) > bound * scale:
                raise ConvergenceError(
                    "root iteration did not reach the requested accuracy"
                )
        roots.extend(zs)
        return roots
