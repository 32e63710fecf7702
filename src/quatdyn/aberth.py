"""Simultaneous root iteration on a precision ladder, and certified disks.

Both routines take a polynomial P as its integer coefficients, low degree
first, with a leading coefficient of either sign.  `aberth_roots` runs the
Aberth-Ehrlich iteration, updating each approximant in place (Gauss-Seidel),
on a ladder of precisions (Bini & Fiorentino 2000, MPSolve), every rung on
Python integers.  The first rung is narrow (`FIRST_BITS`): it starts on the
circles of the Newton polygon (Bini 1996, Numer. Algorithms 13) and only
brings each approximant near its root, which costs most of the sweeps, at
the cheapest width.  Each later rung runs at twice the previous precision,
starting from the previous rung's approximants, up to `precision + 64` bits.
Roots of multiplicity above one converge only linearly and to about half the
working precision, so callers pass squarefree polynomials.

On an integer rung of `bits` bits, each approximant is a Gaussian integer
(a, b) with its own binary exponent F, z = (a + ib)/2**F, and max(|a|, |b|)
keeps about W = bits + 8 bits.  Its Aberth step is computed in its own
variable u = z/2**(W - F), which has modulus near 1: P and P' by Horner in
fixed point on the coefficients of P(2**(W - F) * u), scaled to about W bits
and cached per exponent, and the correction w / (1 - w * sum 1/(u - u_j)),
w = P/P', by integer divisions at scale 2**W.  So every root is computed to
about W bits relative to its own modulus, however far the moduli spread.

Approximants come back as such triples (a, b, F).  `to_grid` aligns them on
one fixed-point grid, and `inclusion_radii` bounds the Weierstrass radii
n*|P(z_k)| / |lead * prod_{j != k} (z_k - z_j)| there, on Gaussian integers,
each rounded up once; its `error` widens them for coefficients known only to
within that many units; one exact value of P per approximant serves both
its residual test and its radius.  Where the disks are pairwise disjoint,
each contains exactly one root (Braess & Hadeler 1973).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .errors import ConvergenceError
from .scalars import nearest

# bits of the ladder's first rung; each later rung doubles them
FIRST_BITS = 20
# bits an integer rung works with beyond its nominal precision
GUARD_BITS = 8
# Aberth sweeps a rung may take
MAX_SWEEPS = 400

# an approximant (a + ib)/2**F
Approximant = tuple[int, int, int]


def _normal(z: Approximant, W: int) -> Approximant:
    """The same value, rounded so that max(|a|, |b|) has W bits."""
    a, b, F = z
    s = max(abs(a), abs(b)).bit_length() - W
    if s == -W:  # 0 is no root: move to a point 2**-W below the old scale
        return 1 << (W - 1), 1 << (W - 1), F + W
    if s > 0:
        half = 1 << (s - 1)
        return (a + half) >> s, (b + half) >> s, F - s
    return a << -s, b << -s, F - s


def _mantissas(P: list[int], bits: int) -> list[tuple[int, int]]:
    """(m, g) with c / lead ~ m * 2**g and m of about `bits` bits, per
    coefficient c of P."""
    lead, out = P[-1], []
    for c in P:
        g = abs(c).bit_length() - lead.bit_length() - bits
        out.append(((c << -g) // lead if g <= 0 else c // (lead << g), g) if c else (0, 0))
    return out


def _scaled(mants: list[tuple[int, int]], e: int, W: int) -> list[int]:
    """Coefficients of P(2**e * u), times a common power of two, rounded to
    integers whose largest has about W bits."""
    top = max(m.bit_length() + g + e * i for i, (m, g) in enumerate(mants) if m)
    out = []
    for i, (m, g) in enumerate(mants):
        s = top - W - g - e * i  # > 0: the mantissas are wider than W
        out.append((m + (1 << (s - 1))) >> s if m and s <= m.bit_length() else 0)
    return out


def _newton_starts(P: list[int], W: int) -> list[Approximant]:
    """Starting points on the circles of the Newton polygon (Bini 1996).

    Each edge of the upper convex hull of the points (i, log2 |c_i|), from
    i to j, places j - i points on the circle of radius
    |c_i / c_j|**(1/(j - i)), evenly spaced and turned by an offset.
    """
    n = len(P) - 1
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(P):
        if not c:
            continue
        pt = (i, math.log2(abs(c)))
        while len(hull) >= 2:
            (i0, l0), (i1, l1) = hull[-2], hull[-1]
            if (i1 - i0) * (pt[1] - l0) - (l1 - l0) * (pt[0] - i0) < 0:
                break
            hull.pop()
        hull.append(pt)
    zs = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        log_r = (li - lj) / (j - i)
        whole = math.floor(log_r)
        r = 2.0 ** (log_r - whole)
        for k in range(j - i):
            theta = 2 * math.pi * (k / (j - i) + i / n) + 0.7
            a, b = (int(r * f(theta) * 2.0**60) for f in (math.cos, math.sin))
            zs.append(_normal((a, b, 60 - whole), W))
    return zs


def _integer_iterate(mants, zs: list[Approximant], W: int, goal: int, max_iterations: int) -> None:
    """Gauss-Seidel Aberth sweeps over the approximants zs, in place, until
    every step is at most about 2**-goal times its approximant or the budget
    runs out.  Every approximant keeps W bits (see the module docstring)."""
    n = len(zs)
    cache: dict[int, list[int]] = {}
    limit = W - goal  # bit length of a step of 2**-goal relative
    unit, cube, far = 1 << W, 1 << 3 * W, W + 2
    for _ in range(max_iterations):
        worst = 0
        for k in range(n):
            a, b, F = zs[k]
            e = W - F
            K = cache.get(e)
            if K is None:
                K = cache[e] = _scaled(mants, e, W)
            pr, pi, dr, di = K[n], 0, 0, 0
            for c in K[n - 1 :: -1]:
                dr, di = ((dr * a - di * b) >> W) + pr, ((dr * b + di * a) >> W) + pi
                pr, pi = ((pr * a - pi * b) >> W) + c, (pr * b + pi * a) >> W
            if not (pr or pi):
                continue
            q = dr * dr + di * di
            if not q:
                shift = 1 << (W - 4)
                zs[k] = _normal((a + shift, b + shift, F), W)
                worst = W
                continue
            # w = p/p', then the sum of 1/(u - u_j), all over 2**W
            wr = ((pr * dr + pi * di) << W) // q
            wi = ((pi * dr - pr * di) << W) // q
            sr = si = 0
            for aj, bj, Fj in zs:  # zs[k] itself gives d = 0 and is skipped
                t = F - Fj
                if t > far:  # |z_j| is 2**W times |z_k| or more: 1/d is below one unit
                    continue
                if t >= 0:
                    Dr, Di = a - (aj << t), b - (bj << t)
                else:
                    Dr, Di = a - (aj >> -t), b - (bj >> -t)
                d2 = Dr * Dr + Di * Di
                if d2:
                    q = cube // d2
                    sr += Dr * q
                    si -= Di * q
            sr >>= W
            si >>= W
            # the correction w / (1 - w*s)
            xr = unit - ((wr * sr - wi * si) >> W)
            xi = -((wr * si + wi * sr) >> W)
            x2 = xr * xr + xi * xi
            if x2:
                wr, wi = ((wr * xr + wi * xi) << W) // x2, ((wi * xr - wr * xi) << W) // x2
            zs[k] = _normal((a - wr, b - wi, F), W)
            err = max(abs(wr), abs(wi)).bit_length()
            if err > worst:
                worst = err
        if worst <= limit:
            return


def _gauss_horner(P: list[int], a: int, b: int, F: int) -> tuple[int, int]:
    """2**(F*n) * P((a + ib)/2**F) for P = sum P[i] x^i of degree n and
    F >= 0, exactly, as a Gaussian integer."""
    n = len(P) - 1
    hr, hi = P[n], 0
    for i in range(n - 1, -1, -1):
        hr, hi = hr * a - hi * b + (P[i] << (F * (n - i))), hr * b + hi * a
    return hr, hi


def _residual(P: Sequence[int], z: Approximant, bits: int) -> tuple[int, int, int]:
    """(hr, hi, F) with hr + i*hi = 2**(F*n) * P(z), z = (a + ib)/2**F raised to F >= 0,
    once z passes the residual test |Q(z)| <= 2**-bits * max(|lead|, sum |c_i| |z|**i),
    exactly, for Q = P/x**m = sum c_i x^i, Q(0) != 0: unchanged by scaling P."""
    a, b, F = z
    if F < 0:
        a, b, F = a << -F, b << -F, 0
    n, m = len(P) - 1, next(i for i, c in enumerate(P) if c)
    hr, hi = _gauss_horner(P, a, b, F)
    modulus = isqrt(a * a + b * b)  # the size is a lower bound
    size = 0
    for i in range(n, m - 1, -1):
        size = size * modulus + abs(P[i] << (F * (n - i)))
    scale = max(abs(P[n]) << (F * (n - m)), size)
    if (hr * hr + hi * hi) << (2 * bits) > scale * scale * (a * a + b * b) ** m:
        raise ConvergenceError("root iteration did not reach the requested accuracy")
    return hr, hi, F


def aberth_roots(coeffs: Sequence[int], precision: int) -> list[Approximant]:
    """All complex roots of sum coeffs[i]*x^i, for integers coeffs, to
    roughly `precision` bits, as triples (a, b, F) for (a + ib)/2**F.

    Each rung takes at most `MAX_SWEEPS` sweeps; `inclusion_radii` tests the residuals.
    """
    P = list(coeffs)
    while P and not P[-1]:
        P.pop()
    zeros = next((i for i, c in enumerate(P) if c), 0)  # roots at the origin split off exactly
    origin: list[Approximant] = [(0, 0, 0)] * zeros
    P = P[zeros:]
    if len(P) <= 1:
        return origin

    top = max(precision, 0) + 64
    # the first rung only brings every approximant near its root
    bits, goal = FIRST_BITS, FIRST_BITS // 4
    zs = _newton_starts(P, bits + GUARD_BITS)
    while True:
        W = bits + GUARD_BITS
        _integer_iterate(_mantissas(P, W + 4), zs, W, goal, MAX_SWEEPS)
        if bits == top:
            break
        bits = min(2 * bits, top)
        zs = [_normal(z, bits + GUARD_BITS) for z in zs]
        # below the top, a step of 2**-(k/2) leaves an error near 2**-k
        # (quadratic convergence), so the confirming sweep is skipped
        goal = bits - 56 if bits == top else (bits - 56) // 2
    return origin + zs


def to_grid(zs: list[Approximant], bits: int) -> tuple[int, list[tuple[int, int]]]:
    """Align approximants on Gaussian integers over a common 2**E.

    E keeps `bits` + 16 bits of the largest modulus, so the rounding stays
    below the accuracy of a `bits`-bit rung.
    """
    top = max((x.bit_length() - F - 1 for a, b, F in zs for x in (a, b) if x), default=0)
    E = max(bits + 16 - top, 16)

    def align(x: int, F: int) -> int:
        return x << (E - F) if E >= F else nearest(None, (x,), 1 << (F - E), 0)

    return E, [(align(a, F), align(b, F)) for a, b, F in zs]


def sqrt_up(a: int, b: int) -> Fraction:
    """A dyadic rational at least sqrt(a/b), for integers b > 0, within a relative 2**-60."""
    if a <= 0:
        return Fraction(0)
    k = 64 - (a.bit_length() - b.bit_length()) // 2
    if k >= 0:
        return Fraction(isqrt((a << 2 * k) // b) + 1, 1 << k)
    return Fraction((isqrt(a // (b << -2 * k)) + 1) << -k)


def inclusion_radii(
    P: Sequence[int], E: int, points: list[tuple[int, int]], error: int,
    approximants: Sequence[Approximant], residual_bits: int
) -> list[Fraction] | None:
    """Upper bounds of the Weierstrass radii of the grid points (A + iB)/2**E
    as approximants of the roots of P = sum P[i]*x^i, integers, which must
    number as many as its degree; None when two points coincide.

    The disks also hold the roots of every P + delta with |delta_i| <= `error`
    in each lower coefficient: `error` is in units of P's coefficients.  Each
    of the `approximants` the points were aligned from first passes the
    residual test at `residual_bits`, else ConvergenceError is raised; on the
    grid, that one exact value of P serves its radius too.  2**(E*n) * P(z_k)
    is a Gaussian integer, and so is every difference of two points, so each
    radius is rounded up once, from an integer ratio.
    """
    n, lead = len(P) - 1, P[-1]
    values = [_residual(P, z, residual_bits) for z in approximants]
    radii = []
    for k, ((A, B), (hr, hi, F)) in enumerate(zip(points, values)):
        hr, hi = (hr << (E - F) * n, hi << (E - F) * n) if F <= E else _gauss_horner(P, A, B, E)
        prod = math.prod((A - A2) ** 2 + (B - B2) ** 2 for j, (A2, B2) in enumerate(points) if j != k)
        if not prod:
            return None
        value2 = hr * hr + hi * hi  # |2**(E*n) * P(z_k)|**2
        if error:
            # |P(z_k)| + error * sum |z_k|**i, times 2**(E*n), with M > 2**E * |z_k|:
            # the sum of M**i * 2**(E*(n - i)) over i < n, by Horner's rule in M
            M, powers = isqrt(A * A + B * B) + 1, 0
            for i in range(n - 1, -1, -1):
                powers = powers * M + (1 << E * (n - i))
            value2 = (isqrt(value2) + 1 + error * powers) ** 2
        radii.append(sqrt_up(n * n * value2, lead * lead * prod << 2 * E))
    return radii
