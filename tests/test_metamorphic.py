"""Metamorphic relations: an isomorphism of algebras applied to the input of a
command gives the same answer, carried over by the isomorphism.

Inner conjugation x -> q*x*q^-1 by an invertible q is an automorphism of a
quaternion algebra that fixes the ground field.  So lam is a root of f exactly
when q*lam*q^-1 is one of q*f*q^-1, the two have the same companion, and
every composite and repeated evaluation is carried over.  Exact `roots` must
give the same class list with each point conjugated, or the same
ClassSearchIncompleteError; numeric `roots` the same class data and kinds;
`certify_periodic` the same verdict and the same evidence.  No second
decision procedure is needed.  The relation cannot see a class that every
conjugate misses alike.

Over octonions inner conjugation is no automorphism.  Scaling the generators
is one: i -> s*i, j -> t*j, l -> u*l maps oct:-s^2,-t^2,-u^2@Q onto
oct:-1,-1,-1@Q, and each basis unit scales by the factors of the generators
it is a product of.  The reference algebra confirms that on the 64 basis
products before the map is applied to `check-periodic`, `oct-check` and both
`orbit` semantics.
"""

import random
from fractions import Fraction

from quatdyn import ClassSearchIncompleteError, Poly, certify_periodic, octonion_fixed_check, roots
from quatdyn.cli import parse_algebra
from quatdyn.dynamics import orbit

from helpers import rand_nonzero, rand_oct, rand_poly, rand_quat, reference

DRAWS = 50


def _plant(rng, f, lam):
    """f itself, or f with lam made a root or a fixed point, in half the draws each."""
    kind = rng.choice(("free", "free", "root", "fixed"))
    if kind == "free":
        return f
    return f - f(lam) + (lam if kind == "fixed" else 0)


def _exact(f):
    try:
        return [(s.kind, s.klass, s.point, s.detail) for s in roots(f)]
    except ClassSearchIncompleteError as exc:
        return str(exc)


def test_inner_conjugation_carries_roots_and_verdicts():
    for text in ("quat:-1,-1@Q", "quat:-1,-3@Q", "quat:2,1/3@Q"):
        spec, rng = parse_algebra(text), random.Random(f"conjugation:{text}")
        for _ in range(DRAWS):
            lam = rand_quat(rng, spec)
            f = _plant(rng, rand_poly(rng, spec, rng.randint(1, 3)), lam)
            q = rand_nonzero(rand_quat, rng, spec, den=2)
            while not q.norm():
                q = rand_nonzero(rand_quat, rng, spec, den=2)
            move = lambda x, qi=q.inv(): q * x * qi
            g, mu = Poly(spec, map(move, f.coeffs)), move(lam)

            found, moved = _exact(f), _exact(g)
            if isinstance(found, str):
                assert moved == found, (text, f, q)
            else:
                expected = [(kind, klass, point and move(point), detail) for kind, klass, point, detail in found]
                assert moved == expected, (text, f, q)
            numeric = [[(s.kind, s.klass) for s in roots(h, mode="numeric")] for h in (f, g)]
            assert numeric[0] == numeric[1], (text, f, q)
            for r in (1, 2):
                assert certify_periodic(f, lam, r) == certify_periodic(g, mu, r), (text, f, lam, q, r)


def test_generator_scaling_carries_octonion_orbits_and_verdicts():
    target = parse_algebra("oct:-1,-1,-1@Q")
    for s, t, u in ((2, 3, Fraction(1, 2)), (Fraction(1, 3), 1, 2)):
        # the factor of each basis unit 1, i, j, k, l, il, jl, kl
        factors = [1, s, t, s * t, u, s * u, t * u, s * t * u]
        spec = parse_algebra(f"oct:{-s * s},{-t * t},{-u * u}@Q")
        source, image = reference(spec), reference(target)
        scaled = lambda x: tuple(v * w for v, w in zip(x, factors))
        units = [tuple(Fraction(m == n) for n in range(8)) for m in range(8)]
        for x in units:
            for y in units:
                assert scaled(source.mul(x, y)) == image.mul(scaled(x), scaled(y)), (spec, x, y)

        def move(x):
            return sum(
                (Fraction(v, x.den) * w * target.basis_element(sym)
                 for v, w, sym in zip(x.nums, factors, x.BASIS)),
                target.zero(),
            )

        rng = random.Random(f"scaling:{spec}")
        for _ in range(DRAWS):
            lam = rand_oct(rng, spec)
            f = _plant(rng, rand_poly(rng, spec, rng.randint(1, 3)), lam)
            g, mu = Poly(target, map(move, f.coeffs)), move(lam)
            for r in (1, 2):
                assert certify_periodic(f, lam, r, n_max=3) == certify_periodic(g, mu, r, n_max=3), (f, lam, r)
            assert octonion_fixed_check(f, lam, 3) == octonion_fixed_check(g, mu, 3), (f, lam)
            for semantics in ("compose", "eval"):
                report, carried = orbit(f, lam, 3, semantics), orbit(g, mu, 3, semantics)
                assert [move(p) for p in report.points] == list(carried.points), (f, lam, semantics)
                assert report.commutes_with_start == carried.commutes_with_start, (f, lam, semantics)
