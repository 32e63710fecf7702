"""quatdyn._arith against sympy: the gcd over F_p, the squarefree part over Z,
the roots and irreducible quadratics mod p, the p-adic lift and the
candidates it gives, and the primality test, each on 200 random inputs."""

import math
import random

import pytest

from quatdyn import QuatSpec, companion, parse_poly
from quatdyn._arith import (
    _candidates,
    _gf,
    _gf_gcd,
    _integer_squarefree,
    _is_prime,
    _lift,
    _local_factors,
    _prime,
    _primitive,
)

from test_solver import _LEAD_PRIMES, _times

sympy = pytest.importorskip("sympy")
galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = sympy.ZZ

INPUTS = 200
SMALL_PRIMES = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def _random(rng, degree, bound):
    """A polynomial of the degree, coefficients within bound, lead nonzero."""
    return [rng.randint(-bound, bound) for _ in range(degree)] + [rng.choice([-1, 1]) * rng.randint(1, bound)]


def _planted(rng, bound=50):
    """An integer polynomial of degree at most 12 with leads of small primes:
    linear and quadratic factors, some repeated, and often a dense cubic."""
    f = [rng.choice([1, -1]) * math.prod(rng.sample(SMALL_PRIMES[:6], rng.randint(0, 2)))]
    for _ in range(rng.randint(1, 4)):
        factor = _random(rng, rng.randint(1, 2), bound)
        for _ in range(rng.choice([1, 1, 2])):
            if len(f) + len(factor) <= 13:
                f = _times(f, factor)
    if rng.random() < 0.5 and len(f) <= 9:
        f = _times(f, _random(rng, 3, 9))
    return f if len(f) > 1 else [1, 3]


def _value(P, a, b, x0, x1, m):
    """P(x0 + x1*Y) mod m in Z[Y]/(Y**2 - a*Y + b), by Horner, as (v0, v1)."""
    v0 = v1 = 0
    for c in reversed(P):
        # (v0 + v1*Y)*(x0 + x1*Y), with Y**2 = a*Y - b
        v0, v1 = (v0 * x0 - b * v1 * x1 + c) % m, (v0 * x1 + v1 * x0 + a * v1 * x1) % m
    return v0, v1


def _lifted_roots_vanish(P, p, roots, quadratics, m):
    """Whether each root of P in F_p, and a root of each irreducible quadratic
    factor mod p, lifts to a root of P modulo m that reduces to it mod p."""
    for r in roots:
        x0, _ = _lift(P, 0, 0, (r, 0), p, m)
        if x0 % p != r or _value(P, 0, 0, x0, 0, m) != (0, 0):
            return False
    for q in quadratics:
        a, b = -q[1] % p, q[0]
        x0, x1 = _lift(P, a, b, (0, 1), p, m)
        if (x0 % p, x1 % p) != (0, 1) or _value(P, a, b, x0, x1, m) != (0, 0):
            return False
    return True


def test_gf_gcd_matches_galoistools():
    rng = random.Random(1)
    for _ in range(INPUTS):
        p = rng.choice(SMALL_PRIMES + [_prime(rng.randint(0, 5))])
        # leads below p: a is nonzero mod p, and most pairs share a factor
        common = _random(rng, rng.randint(0, 4), p - 1)
        a = _gf(_times(_random(rng, rng.randint(0, 6), p - 1), common), p)
        b = _gf(_times(_random(rng, rng.randint(0, 6), p - 1), common), p) if rng.random() < 0.9 else []
        expected = galoistools.gf_gcd(a[::-1], b[::-1], p, ZZ)[::-1]
        assert _gf_gcd(a, b, p) == [int(c) for c in expected], (a, b, p)


def test_integer_squarefree_matches_sqf_part():
    rng = random.Random(2)
    y = sympy.Symbol("y")
    for _ in range(INPUTS):
        f = _planted(rng, bound=rng.choice([9, 10**6, 10**40]))
        # sympy's part over Z is primitive with a positive lead; ours has f's sign
        expected = sympy.Poly(f[::-1], y).sqf_part().all_coeffs()[::-1]
        sign = 1 if f[-1] > 0 else -1
        assert _integer_squarefree(f) == [sign * int(c) for c in expected], f


def test_local_factors_match_gf_factor_sqf():
    """The prime is the first from 11 on that does not divide P's lead and
    keeps P squarefree mod p; the roots and quadratics are the factors of
    degree 1 and 2 of P mod p."""
    rng = random.Random(3)
    for _ in range(INPUTS):
        P = _integer_squarefree(_planted(rng))
        p, roots, quadratics = _local_factors(P)
        for q in range(11, p + 1, 2):
            if not sympy.isprime(q):
                continue
            image = galoistools.gf_from_int_poly(P[::-1], q)
            good = P[-1] % q != 0 and galoistools.gf_sqf_p(image, q, ZZ)
            assert good == (q == p), (P, q, p)
        _, factors = galoistools.gf_factor_sqf(galoistools.gf_from_int_poly(P[::-1], p), p, ZZ)
        assert roots == sorted(-int(h[1]) % p for h in factors if len(h) == 2), P
        assert sorted(quadratics) == sorted([int(c) for c in h[::-1]] for h in factors if len(h) == 3), P


def test_lift_and_candidates_match_factor_list():
    """Each lifted root is a root of P modulo m, and the candidates hold
    every factor of degree <= 2 over Q, up to sign."""
    rng = random.Random(4)
    y = sympy.Symbol("y")
    for _ in range(INPUTS):
        P = _integer_squarefree(_planted(rng, bound=rng.choice([9, 1000])))
        p, roots, quadratics = _local_factors(P)
        assert _lifted_roots_vanish(P, p, roots, quadratics, p ** rng.randint(1, 40))
        got_p, candidates = _candidates(P)
        assert got_p == p
        positive = [h if h[-1] > 0 else [-c for c in h] for h in candidates]
        for factor, _ in sympy.factor_list(sympy.Poly(P[::-1], y))[1]:
            h = [int(c) for c in factor.all_coeffs()[::-1]]
            assert len(h) > 3 or h in positive, (P, h)


def test_is_prime_matches_isprime():
    rng = random.Random(5)
    numbers = [rng.randint(1, 10**6) for _ in range(INPUTS)]
    numbers += [rng.randint(1, 1 << 64) | 1 for _ in range(INPUTS)]
    numbers += [sympy.randprime(1 << 30, 1 << 62) for _ in range(INPUTS // 4)]
    # products of two primes, and the strong pseudoprimes to the first bases
    numbers += [sympy.nextprime(rng.randint(1, 1 << 31)) * sympy.nextprime(rng.randint(1, 1 << 31)) for _ in range(INPUTS // 4)]
    numbers += [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321]
    for n in numbers:
        assert _is_prime(n) == sympy.isprime(n), n


# -- the two costs on record: each answer checked, no time asserted ------------------


def test_lift_on_a_lead_of_thousands_of_bits():
    """The companion of (11*13*...*5987)*x^128+i*x+1 has a lead of about 8,000
    bits, so the lift's modulus, above 2*|l|*(B + 1)**2, has about 16,000
    bits: most of `_candidates`'s time there goes to the lift."""
    text = f"({'*'.join(map(str, _LEAD_PRIMES))})*x^128+i*x+1"
    f = _primitive(companion(parse_poly(text, QuatSpec.standard())).cols[0])
    P = _integer_squarefree(f)
    p, roots, quadratics = _local_factors(P)
    assert (p, len(P)) == (6007, 257)
    lead, B = P[-1], 1 - max(map(abs, P[:-1])) // -abs(P[-1])
    m = p
    while m <= 2 * abs(lead) * (B + 1) ** 2:
        m *= m
    assert m.bit_length() > 16_000
    assert roots or quadratics
    assert _lifted_roots_vanish(P, p, roots, quadratics, m)


def test_modular_gcd_on_a_dense_square_times_a_cofactor():
    """A dense a**2 * b of degree 118 and about 900 bits, where each prime's
    image is a Euclid of degree 118 over F_p."""
    rng = random.Random(118)
    a = [rng.randint(-(1 << 295), 1 << 295) for _ in range(41)]
    b = [rng.randint(-(1 << 295), 1 << 295) for _ in range(39)]
    f = _times(_times(a, a), b)
    assert len(f) == 119 and 880 < max(abs(c) for c in f).bit_length() < 930
    expected = sympy.Poly(f[::-1], sympy.Symbol("y")).sqf_part().all_coeffs()[::-1]
    sign = 1 if f[-1] > 0 else -1
    assert _integer_squarefree(f) == [sign * int(c) for c in expected]
