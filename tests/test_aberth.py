"""The integer Aberth ladder against sympy's roots, on widely spread roots.

Each family below has roots whose moduli spread over many orders of
magnitude, which a single fixed-point scale for all approximants cannot
hold: the approximants must be isolated by disjoint inclusion disks, and
each disk must hold one of sympy's roots (mpmath through sympy, at more
digits than the precision asked for).
"""

import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from quatdyn import QuatSpec, aberth, companion, parse_poly, roots, solver
from quatdyn.aberth import (
    FIRST_BITS,
    GUARD_BITS,
    _integer_iterate,
    _mantissas,
    _newton_starts,
    _normal,
    aberth_roots,
    inclusion_radii,
    to_grid,
)

from helpers import run_cli

H = QuatSpec.standard()


def _integer(text):
    """Coefficients of an integer polynomial in y, low degree first."""
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    return [int(c) for c in reversed(sympy.Poly(sympy.sympify(text), y).all_coeffs())]


PRECISIONS = (64, 128, 256)


def _family(text, oracle=None):
    return _integer(text), oracle or [text], PRECISIONS


def _biquadratic(k):
    """y^4 + 10^k y^2 + 1 = (y^2 + a)(y^2 + 1/a), a = (10^k + sqrt(10^2k - 4))/2;
    sympy's radicals for the quartic hide a sign test, those of its factors
    do not."""
    a = f"(10**{k} + sqrt(10**{2 * k} - 4))/2"
    return _family(f"y**4 + 10**{k}*y**2 + 1", [f"y**2 + {a}", f"y**2 + 1/({a})"])


def _companion_family(c, complex_c, precisions=(256,)):
    """The companion of x^8 + 10^40 x + c.  Its real coefficients make it
    depend on c through trace and norm only, so it is (y^8 + 10^40 y + c')
    times its conjugate for the complex c' of c's trace and norm.  The
    large roots of the two factors pair up 2**-155 apart, relative to their
    moduli, so 256 bits are the least precision that separates them."""
    coeffs = [int(c.a) for c in companion(parse_poly(f"x^8+10^40*x+{c}", H)).coeffs]
    conj = complex_c.replace("+I", "-I")
    return coeffs, [f"y**8 + 10**40*y + {complex_c}", f"y**8 + 10**40*y + {conj}"], precisions


FAMILIES = [
    *(_biquadratic(k) for k in (10, 30, 60)),
    *(_family(f"(10**{k}*y - 1)*(y - 10**{k})*(y**2 + 1)") for k in (5, 20, 40)),
    # roots of 10^-400 and 10^-1000 are far below the range of a double: the
    # ladder starts them on their own circles of the Newton polygon, and a
    # step test relative to 1 + |z| instead of |z| would stop them after one
    # sweep
    _family("(10**400*y - 1)*(10**1000*y - 1)*(10**2000*y**2 + 2*10**1000*y + 2)"),
    _companion_family("3*k", "+3*I", (256, 512)),
    _companion_family("2+j", "2+I"),
    _companion_family("1-i+2*j+2*k", "1+3*I"),
    _family("y**2 + 10**200"),  # the companion of x - 10^100*i
    _family("y**5 - 7*y**3 + 2*y - 11"),
]


@functools.lru_cache(maxsize=None)
def _sympy_roots(texts, digits):
    """sympy's roots of the polynomials in y named by texts, as exact
    binary fractions: exact roots where sympy.roots finds them all,
    nroots otherwise."""
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    out = []
    for text in texts:
        poly = sympy.Poly(sympy.sympify(text), y)
        exact = sympy.roots(poly)
        if sum(exact.values()) == poly.degree():
            values = [r.evalf(digits) for r in exact]
        else:
            values = poly.nroots(n=digits, maxsteps=500)
        for r in values:
            parts = [sympy.Rational(v) for v in r.as_real_imag()]
            out.append(tuple(Fraction(int(v.p), int(v.q)) for v in parts))
    return out


@pytest.mark.parametrize(
    "coeffs,texts,precision",
    [(coeffs, texts, p) for coeffs, texts, precisions in FAMILIES for p in precisions],
    ids=[f"{k}-{p}" for k, (_, _, precisions) in enumerate(FAMILIES) for p in precisions],
)
def test_disjoint_disks_each_hold_one_sympy_root(coeffs, texts, precision):
    zs = aberth_roots(coeffs, precision=precision)
    # a grid fine enough for the smallest root as well as the largest
    logs = [max(abs(a), abs(b)).bit_length() - F for a, b, F in zs]
    E, pts = to_grid(zs, precision + 64 + max(logs) - min(logs))
    radii = inclusion_radii(coeffs, E, pts, 0, zs, precision // 2)
    assert radii is not None and len(radii) == len(coeffs) - 1
    unit = Fraction(1, 1 << E)
    disks = [(A * unit, B * unit, rho) for (A, B), rho in zip(pts, radii)]
    for a, (x1, y1, r1) in enumerate(disks):
        # every root to half the requested precision at least, relative to its
        # modulus (a close pair loses accuracy to its separation)
        assert r1 * r1 < (x1 * x1 + y1 * y1) / (1 << precision)
        for x2, y2, r2 in disks[a + 1:]:
            assert (x1 - x2) ** 2 + (y1 - y2) ** 2 > (r1 + r2) ** 2
    digits = 200  # above the 174 digits of the top rung at precision 512
    for x, y in _sympy_roots(tuple(texts), digits):
        # sympy's digits are relative: allow for them on top of each radius
        slack = (abs(x) + abs(y)) / 10 ** (digits - 5)
        inside = [(cx, cy) for cx, cy, r in disks if (x - cx) ** 2 + (y - cy) ** 2 <= (r + slack) ** 2]
        assert len(inside) == 1


def test_ladder_starts_on_the_newton_polygon(monkeypatch):
    """x^4 + (2 - 10^3000) x^2 + 1 spreads its roots far outside the range of
    a double: the ladder starts on the Newton polygon's circles, of radii near
    10^1500 and 10^-1500, and converges to both pairs in a few sweeps per rung
    (from a single circle it needs hundreds)."""
    monkeypatch.setattr(aberth, "MAX_SWEEPS", 4)
    C = [1, 0, 2 - 10**3000, 0, 1]
    zs = aberth_roots(C, precision=128)
    E, pts = to_grid(zs, 192 + 2 * 4983)  # the moduli spread over 2 * 4983 bits
    radii = inclusion_radii(C, E, pts, 0, zs, 128 // 2)
    assert radii is not None
    moduli = sorted(Fraction(A * A + B * B, 1 << (2 * E)) for A, B in pts)
    assert [m > 10**2990 for m in moduli] == [False, False, True, True]
    assert all(m < Fraction(1, 10**2990) for m in moduli[:2])


def test_ladder_doubles_from_the_narrow_rung(monkeypatch):
    """Every rung runs on integers: the ladder starts at FIRST_BITS, narrower
    than a double, and doubles up to precision + 64; exact root finding
    climbs no ladder at all."""
    seen = []
    iterate = aberth._integer_iterate

    def record(mants, zs, W, goal):
        seen.append(W - GUARD_BITS)
        return iterate(mants, zs, W, goal)

    monkeypatch.setattr(aberth, "_integer_iterate", record)
    aberth_roots([-6, 11, -6, 1], precision=200)
    assert seen[0] == FIRST_BITS < 53 and seen[-1] == 200 + 64
    assert all(b == 2 * a for a, b in zip(seen, seen[1:-1]))
    assert seen[-2] < seen[-1] <= 2 * seen[-2]

    calls = []
    monkeypatch.setattr(solver, "aberth_roots", lambda *args, **kwargs: calls.append(args))
    sols = roots(parse_poly("(x-1)*(x-2*i)*(x+3)", H))
    assert [s.kind for s in sols] == ["point"] * 3
    assert calls == []

    C = [1, 0, 2 - 10**3000, 0, 1]
    for W in (FIRST_BITS + GUARD_BITS, 12):
        assert W < 60 and len(_newton_starts(C, W)) == 4


@pytest.mark.parametrize("sign", [-1, 1])
def test_integer_input_with_a_non_unit_lead_and_roots_at_the_origin(sign):
    """-+12 y^2 (y - 3)(y + 1/2)(y^2 + 4): the two roots at the origin split
    off exactly, and the sign and size of the lead change nothing else."""
    P = [sign * c for c in _integer("-6*y**2*(y - 3)*(2*y + 1)*(y**2 + 4)")]
    assert P[-1] == -12 * sign and P[:2] == [0, 0]
    zs = aberth_roots(P, precision=128)
    assert zs[:2] == [(0, 0, 0)] * 2
    E, pts = to_grid(zs[2:], 192)
    radii = inclusion_radii(P[2:], E, pts, 0, zs[2:], 128 // 2)
    assert radii is not None
    unit = Fraction(1, 1 << E)
    disks = [(A * unit, B * unit, rho) for (A, B), rho in zip(pts, radii)]
    for a, (x1, y1, r1) in enumerate(disks):
        assert r1 < Fraction(1, 2**100)
        for x2, y2, r2 in disks[a + 1:]:
            assert (x1 - x2) ** 2 + (y1 - y2) ** 2 > (r1 + r2) ** 2
    for x, y in [(3, 0), (Fraction(-1, 2), 0), (0, 2), (0, -2)]:
        assert sum((x - cx) ** 2 + (y - cy) ** 2 <= r * r for cx, cy, r in disks) == 1


@pytest.mark.parametrize("text", [
    "2**20*(y - 1)*(y - 2)*(y + 3)",
    "-3*2**16*(y**2 + 1)*(y - 5) + 7",
    "2**30*(y - 1)*(y - 1 - 2**-10)",
])
def test_error_disks_hold_the_roots_of_every_perturbation(text):
    """With error 1, the disks hold every root of P + delta for delta of -1,
    0 or 1 in each coefficient below the lead: `error` counts units of P's
    own coefficients, whatever its lead."""
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    P = _integer(text)
    zs = aberth_roots(P, precision=64)
    E, pts = to_grid(zs, 128)
    radii = inclusion_radii(P, E, pts, 1, zs, 64 // 2)
    unit = Fraction(1, 1 << E)
    disks = [(A * unit, B * unit, rho) for (A, B), rho in zip(pts, radii)]
    assert all(rho < Fraction(1, 2**8) for _, _, rho in disks)
    for delta in itertools.product((-1, 0, 1), repeat=len(P) - 1):
        perturbed = [c + d for c, d in zip(P, delta)] + P[-1:]
        for root in sympy.Poly(list(reversed(perturbed)), y).nroots(n=40):
            x, yy = (Fraction(str(sympy.Rational(v))) for v in root.as_real_imag())
            slack = Fraction(1, 10**30)
            assert any((x - cx) ** 2 + (yy - cy) ** 2 <= (r + slack) ** 2 for cx, cy, r in disks)


def _sqrt_bounds(q, bits=256):
    """Fractions at most and at least sqrt(q), 2**-bits apart unless exact."""
    scaled = q.numerator << 2 * bits
    s = isqrt(scaled // q.denominator)
    return Fraction(s, 2**bits), Fraction(s + (s * s * q.denominator != scaled), 2**bits)


@pytest.mark.parametrize("seed", range(12))
def test_radii_against_a_fraction_oracle(seed):
    """Each radius, rounded up from the unreduced integer ratio, lies between
    the Weierstrass radius n*(|P(z_k)| + error*sum_{i<n} |z_k|**i) /
    |lead * prod_{j != k} (z_k - z_j)|, computed on Fractions, and 1 + 2**-56
    times it; coincident points give None."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    P = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
    zs = aberth_roots(P, precision=64)
    E, pts = to_grid(zs, 128)
    assert len(set(pts)) == n
    lead, unit = abs(P[-1]), Fraction(1, 1 << E)
    for error in (0, 1):
        radii = inclusion_radii(P, E, pts, error, zs, 32)
        for k, (A, B) in enumerate(pts):
            x, y = A * unit, B * unit
            re = im = Fraction(0)
            for c in reversed(P):  # P(z) by Horner's rule
                re, im = re * x - im * y + c, re * y + im * x
            spread = Fraction(1)
            for j, (A2, B2) in enumerate(pts):
                if j != k:
                    spread *= ((A - A2) ** 2 + (B - B2) ** 2) * unit * unit
            size = _sqrt_bounds(x * x + y * y)
            residual = _sqrt_bounds(re * re + im * im)
            distance = _sqrt_bounds(spread)
            low, high = (
                n * (residual[s] + error * sum(size[s] ** i for i in range(n))) / (lead * distance[1 - s])
                for s in (0, 1)
            )
            assert high <= radii[k] <= (1 + Fraction(1, 2**56)) * low
    assert inclusion_radii(P, E, pts[:-1] + pts[:1], 1, zs[:-1] + zs[:1], 32) is None


@pytest.mark.parametrize("seed", range(4))
def test_sqrt_up_bounds_every_representation_of_a_ratio(seed):
    """sqrt_up(g*a, g*b) is at least sqrt(a/b) and within a relative 2**-60
    of it, whatever the common factor g and however far a/b is from 1."""
    rng = random.Random(seed)
    for _ in range(200):
        a, b = rng.getrandbits(rng.randint(1, 600)), rng.getrandbits(rng.randint(1, 600)) | 1
        g = rng.getrandbits(rng.randint(1, 300)) | 1
        r = aberth.sqrt_up(g * a, g * b)
        q = Fraction(a, b)
        assert r * r >= q and r * r <= q * (1 + Fraction(1, 2**60)) ** 2
    assert aberth.sqrt_up(0, 7) == 0 and aberth.sqrt_up(9 << 400, 4 << 400) == Fraction(3, 2) + Fraction(1, 2**64)


@pytest.mark.parametrize("seed", range(4))
def test_sqrt_up_depends_on_the_ratio_only(seed):
    """sqrt_up(g*a, g*b) == sqrt_up(a, b): the rounding is fixed by a/b, also
    where a/b lies just below, at or just above a power of two, where the
    bit lengths of a and b alone misjudge its binary exponent."""
    rng = random.Random(seed)
    for _ in range(200):
        b = rng.getrandbits(rng.randint(1, 300)) | 1
        if rng.random() < 0.5:  # a/b next to a power of two, once b is shifted
            a = (b << rng.randint(0, 300)) + rng.choice((-1, 0, 1))
        else:
            a = rng.getrandbits(rng.randint(1, 600)) | 1
        b <<= rng.randint(0, 300)
        g = rng.getrandbits(rng.randint(1, 300)) + 1
        assert aberth.sqrt_up(g * a, g * b) == aberth.sqrt_up(a, b), (a, b, g)


def _planted_classes(rng):
    """A squarefree integer polynomial, low degree first, with its classes:
    (2*mu, mu**2) per distinct rational root mu, (T, N) per distinct
    quadratic x^2 - T*x + N with T*T < 4*N (irreducible, no real root)."""
    mus = {Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))}
    quads = set()
    for _ in range(rng.randint(0 if mus else 1, 2)):
        T = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        quads.add((T, T * T / 4 + Fraction(rng.randint(1, 9), rng.randint(1, 4))))
    P = [1]
    for factor in [[-mu.numerator, mu.denominator] for mu in mus] + [
        [N * d, -T * d, d] for T, N in quads for d in [T.denominator * N.denominator]
    ]:
        P = [sum(P[i] * factor[k - i] for i in range(len(P)) if 0 <= k - i < len(factor))
             for k in range(len(P) + len(factor) - 1)]
    classes = [(2 * mu, mu * mu, False) for mu in mus] + [(T, N, False) for T, N in quads]
    return [int(c) for c in P], sorted(classes)


def test_class_data_returns_the_planted_classes():
    """At precision 128, on planted squarefree integer polynomials shifted
    left by precision + 32 bits, as the solver passes its rounded squarefree
    part: each rational root and each complex pair snaps to its exact class,
    and no disk excludes a real root."""
    precision, rng = 128, random.Random("class data")
    for _ in range(200):
        P, classes = _planted_classes(rng)
        P = [c << (precision + 32) for c in P]
        found = aberth.class_data(P, aberth_roots(P, precision=precision), precision)
        assert sorted(found) == classes, P


SMALL = ["roots", "--poly", "x^4+3*x^3-2*x+i", "--mode", "numeric"]


def test_p_is_evaluated_once_per_approximant(monkeypatch):
    """The squarefree companion of x^4 + 3x^3 - 2x + i has degree 8: its 8
    approximants all lie on the grid, so one evaluation of P each serves
    both the residual test and the inclusion radius."""
    degrees = []
    horner = aberth._gauss_horner

    def spy(P, a, b, F):
        degrees.append(len(P) - 1)
        return horner(P, a, b, F)

    monkeypatch.setattr(aberth, "_gauss_horner", spy)
    assert run_cli(SMALL)[0] == 0
    assert degrees == [8] * 8


def test_unconverged_approximants_fail_the_residual_test(monkeypatch):
    """One sweep per rung leaves approximants that fail the residual test."""
    monkeypatch.setattr(aberth, "MAX_SWEEPS", 1)
    code, out = run_cli(SMALL)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ConvergenceError",
        "message": "root iteration did not reach the requested accuracy",
    }


def test_off_grid_approximants_keep_their_own_residual_test():
    """x^4 + 10^40 x + i has roots near 10^-40 and near 10^(40/3): the grid,
    fixed by the largest, rounds the approximants of the small ones, so P is
    evaluated again at their grid points for the radii, while the residual
    test stays on the approximants themselves (at the rounded grid points
    this input fails it).  The output is pinned by its SHA-256."""
    code, out = run_cli(["roots", "--poly", f"x^4+{10**40}*x+i", "--mode", "numeric", "--precision", "128"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f77e85a135d5a09622419bc5bb08925c92f20e782a412cf082c0fae7f9344757"
    )


def test_normal_moves_zero_off_the_origin():
    """0 is no root: it becomes (1 + i)/2 * 2**-W of the old scale, at W bits."""
    assert _normal((0, 0, 3), 16) == (1 << 15, 1 << 15, 19)
    assert _normal((5, -3, 2), 16) == (5 << 13, -3 << 13, 15)


def test_a_zero_derivative_steps_aside(monkeypatch):
    """P = x^3 - 3x + 1 has P'(1) = 0 and P(1) = -1: an approximant at 1
    moves by 2**-4 (1 + i) instead of dividing by P'."""
    monkeypatch.setattr(aberth, "MAX_SWEEPS", 1)
    W, one = 24, (1 << 23, 0, 23)
    zs = [one, _normal((-3, 0, 1), W), _normal((2, 1, 3), W)]
    _integer_iterate(_mantissas([1, -3, 0, 1], W + 4), zs, W, 4)
    assert zs[0] == _normal((one[0] + (1 << 20), 1 << 20, 23), W)


def test_leading_zeros_are_stripped():
    assert aberth_roots([-2, 0, 1, 0, 0], 64) == aberth_roots([-2, 0, 1], 64)
    assert aberth_roots([0, 0, 1, 0], 64) == [(0, 0, 0), (0, 0, 0)]
