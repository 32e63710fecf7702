"""Numeric class extraction: simultaneous root iteration on a precision
ladder, certified disks, and the roots snapped to class data.

Its routines take a polynomial P as its integer coefficients, low degree
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
within that many units; one exact value of P per approximant, and its norm,
serve both its residual test and its radius.  Where the disks are pairwise disjoint, each
contains exactly one root (Braess & Hadeler 1973).

`class_data` turns the approximants into the solver's class data, on the
grid of `precision + 64` bits, with disks that cover the rounding of the
coefficients too, all on one integer grid 2**-S, points and radii: a
Fraction appears only in the class data.  A root is near-real when its
imaginary part is within 2**-h * (1 + |z|), h = `near_real_bits(precision)`,
and its disk meets the real axis, with one verdict per conjugate pair.
Near-real roots give central classes (2*mu, mu^2), conjugate pairs give
(T, N), each snapped to the simplest rational within the root's disk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt
from typing import Sequence

from ._kernel import PATHS
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


def _integer_iterate(mants, zs: list[Approximant], W: int, goal: int) -> None:
    """Gauss-Seidel Aberth sweeps over the approximants zs, in place, until
    every step is at most about 2**-goal times its approximant or MAX_SWEEPS
    sweeps have run.  Every approximant keeps W bits (see the module docstring)."""
    n = len(zs)
    cache: dict[int, list[int]] = {}
    limit = W - goal  # bit length of a step of 2**-goal relative
    unit, cube, far = 1 << W, 1 << 3 * W, W + 2
    for _ in range(MAX_SWEEPS):
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
    PATHS["numeric", "evaluations"] += 1
    n = len(P) - 1
    hr, hi = P[n], 0
    for i in range(n - 1, -1, -1):
        hr, hi = hr * a - hi * b + (P[i] << (F * (n - i))), hr * b + hi * a
    return hr, hi


def _residual(P: Sequence[int], z: Approximant, bits: int) -> tuple[int, int]:
    """(F, |2**(F*n) * P(z)|**2) for z = (a + ib)/2**F raised to F >= 0, once z passes the
    residual test |Q(z)| <= 2**-bits * max(|lead|, sum |c_i| |z|**i) exactly, for
    Q = P/x**m = sum c_i x^i, Q(0) != 0: unchanged by scaling P."""
    a, b, F = z
    if F < 0:
        a, b, F = a << -F, b << -F, 0
    n, m = len(P) - 1, next(i for i, c in enumerate(P) if c)
    hr, hi = _gauss_horner(P, a, b, F)
    value2 = hr * hr + hi * hi
    modulus = isqrt(a * a + b * b)  # the size is a lower bound
    size = 0
    for i in range(n, m - 1, -1):
        size = size * modulus + abs(P[i] << (F * (n - i)))
    scale = max(abs(P[n]) << (F * (n - m)), size)
    if value2 << 2 * bits > scale * scale * (a * a + b * b) ** m:
        raise ConvergenceError("root iteration did not reach the requested accuracy")
    return F, value2


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
        PATHS["numeric", "approximants"] += zeros
        return origin

    top = max(precision, 0) + 64
    # the first rung only brings every approximant near its root
    bits, goal = FIRST_BITS, FIRST_BITS // 4
    zs = _newton_starts(P, bits + GUARD_BITS)
    while True:
        W = bits + GUARD_BITS
        _integer_iterate(_mantissas(P, W + 4), zs, W, goal)
        if bits == top:
            break
        bits = min(2 * bits, top)
        zs = [_normal(z, bits + GUARD_BITS) for z in zs]
        # below the top, a step of 2**-(k/2) leaves an error near 2**-k
        # (quadratic convergence), so the confirming sweep is skipped
        goal = bits - 56 if bits == top else (bits - 56) // 2
    PATHS["numeric", "approximants"] += zeros + len(zs)
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
    """A dyadic rational at least sqrt(a/b), for integers b > 0, within a relative
    2**-60; it depends on the ratio a/b only, whatever its representation."""
    if a <= 0:
        return Fraction(0)
    e = a.bit_length() - b.bit_length()
    e -= (a << max(-e, 0)) < (b << max(e, 0))  # e = floor(log2(a/b))
    k = 64 - e // 2
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
    # squared distances, each taken once: dist[k][j] to the earlier points j < k
    dist = [[(A - A2) ** 2 + (B - B2) ** 2 for A2, B2 in points[:k]]
            for k, (A, B) in enumerate(points)]
    radii = []
    for k, ((A, B), (F, value2)) in enumerate(zip(points, values)):
        prod = math.prod(dist[k]) * math.prod(dist[j][k] for j in range(k + 1, len(points)))
        if not prod:
            return None
        if F > E:  # off the grid: P again at the grid point
            hr, hi = _gauss_horner(P, A, B, E)
            F, value2 = E, hr * hr + hi * hi
        value2 <<= 2 * (E - F) * n  # |2**(E*n) * P(z_k)|**2
        if error:
            # |P(z_k)| + error * sum |z_k|**i, times 2**(E*n), with M > 2**E * |z_k|:
            # the sum of M**i * 2**(E*(n - i)) over i < n, by Horner's rule in M
            M, powers = isqrt(A * A + B * B) + 1, 0
            for i in range(n - 1, -1, -1):
                powers = powers * M + (1 << E * (n - i))
            value2 = (isqrt(value2) + 1 + error * powers) ** 2
        radii.append(sqrt_up(n * n * value2, lead * lead * prod << 2 * E))
    return radii


def _simplest(x: int, delta: int, den: int) -> Fraction:
    """The rational of least denominator, then least magnitude, within delta/den
    of x/den, for integers delta >= 0 and den > 0."""
    lo, hi = x - delta, x + delta
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -_simplest(-x, delta, den)
    # continued-fraction descent into [a/b, c/d], 0 < a/b <= c/d, with the
    # convergents p/q built as it goes, from the endpoints' values alone
    a, b, c, d = lo, den, hi, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        whole, rest = divmod(a, b)
        if not rest or (whole + 1) * d <= c:
            term = whole if not rest else whole + 1
            return Fraction(term * p1 + p0, term * q1 + q0)
        p0, q0, p1, q1 = p1, q1, whole * p1 + p0, whole * q1 + q0
        a, b, c, d = d, c - whole * d, b, rest


def near_real_bits(precision: int) -> int:
    """h of the near-real test |Im z| <= 2**-h * (1 + |z|) at `precision`."""
    return precision // 2


def near_real_precision(h: int) -> int:
    """The least precision whose `near_real_bits` reach h: their inverse."""
    return 2 * h


def _near_real(A: int, B: int, E: int, h: int) -> bool:
    """|Im z| <= 2**-h * (1 + |z|) at the grid point z = (A + iB)/2**E."""
    excess = (abs(B) << h) - (1 << E)
    return excess <= 0 or excess * excess <= A * A + B * B


def _real_roots(pts: list[tuple[int, int]], radii: list | None, E: int, h: int) -> list[bool]:
    """Which grid points (A + iB)/2**E count as real roots, with their
    radii, where known, in units of 2**-E.

    A point counts when |Im z| is within 2**-h * (1 + |z|) and, where the
    disks are known, its own disk meets the real axis.  A conjugate pair gets
    one verdict: each point found non-real makes the point nearest its
    conjugate, across the axis, non-real as well.  (The approximants of a
    pair are not exact conjugates, nor are their radii equal.)
    """
    real = [
        _near_real(A, B, E, h) and (radii is None or abs(B) <= rho)
        for (A, B), rho in zip(pts, radii or [None] * len(pts))
    ]
    for k in [k for k, r in enumerate(real) if not r]:
        A, B = pts[k]
        across = [j for j, (_, B2) in enumerate(pts) if B2 * B < 0]
        if across:
            j = min(across, key=lambda j: (pts[j][0] - A) ** 2 + (pts[j][1] + B) ** 2)
            real[j] = False
    return real


def class_data(
    P: Sequence[int], zs: list[Approximant], precision: int
) -> list[tuple[Fraction, Fraction, bool]]:
    """The class data (T, N, excluded) of the roots of P, rationals, from its
    approximants zs (`aberth_roots` at `precision`): (2*mu, mu**2) per real
    root, (T, N) per conjugate pair, each snapped within the root's disk, with
    `excluded` whether every disk excludes mu.  P's coefficients are taken as
    rounded, known to within one unit each.  ConvergenceError when an
    approximant fails the residual test or the non-real roots do not pair up.
    """
    E, pts = to_grid(zs, precision + 64)
    radii = inclusion_radii(P, E, pts, 1, zs, precision // 2)
    S = max([E] + [r.denominator.bit_length() - 1 for r in radii or ()])
    pts = [(A << S - E, B << S - E) for A, B in pts]
    if radii is not None:  # dyadic: each denominator a power of two, at most 2**S
        radii = [r.numerator << S - r.denominator.bit_length() + 1 for r in radii]
    disks = [(A, B, R) for (A, B), R in zip(pts, radii or ())]
    den, found, upper, lower = 1 << S, [], 0, 0
    real = _real_roots(pts, radii, S, near_real_bits(precision))
    for (A, B), R, is_real in zip(pts, radii or [0] * len(pts), real):
        if is_real:
            mu = _simplest(A, R, den)
            p, q = mu.numerator << S, mu.denominator
            # mu lies in its own root's disk as a rule, so that one goes first
            excluded = bool(disks) and all(
                (X * q - p) ** 2 + (Y * q) ** 2 > (r * q) ** 2 for X, Y, r in [(A, B, R)] + disks
            )
            found.append((2 * mu, mu * mu, excluded))
        elif B > 0:
            upper += 1
            # |z|**2 over den**2, snapped within (2*|z| + rho) * rho, |z| = m/dm rounded up
            q = A * A + B * B
            m, dm = sqrt_up(q, den * den).as_integer_ratio()
            norm = _simplest(q * dm, ((m << S + 1) + R * dm) * R, dm << 2 * S)
            found.append((_simplest(2 * A, 2 * R, den), norm, False))
        else:
            lower += 1
    if lower != upper:
        raise ConvergenceError("conjugate pairing of numeric roots failed")
    return found
