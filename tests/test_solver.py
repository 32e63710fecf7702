import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatdyn import (
    ClassSearchIncompleteError,
    ConjClass,
    FieldSpec,
    OctSpec,
    Poly,
    QQ,
    QuatSpec,
    UnsupportedAlgebraError,
    ZeroPolynomialError,
    companion,
    parse_poly,
    extract_classes,
    roots,
    solve_in_class,
)

from helpers import (
    rand_poly,
    rand_quat,
    rand_scalar,
    rand_solvable_poly,
    sqrt_bracket,
    table_qconj,
    table_qmul,
    tuple_poly_mul,
)

H = QuatSpec.standard()
F5 = FieldSpec(5)
I, J, K = H.i(), H.j(), H.k()

G_EXAMPLE = Poly(H, [1 + K, I, 1])  # x^2 + ix + 1 + ij


def oracle_companion(g: Poly) -> list[Fraction]:
    """Companion coefficients by table-expanded convolution, bypassing Poly."""
    al = g.spec.alpha.a
    be = g.spec.beta.a
    coeffs = [tuple(s.a for s in c.coords()) for c in g.coeffs]
    conjugated = [table_qconj(c) for c in coeffs]
    mul = lambda x, y: table_qmul(al, be, x, y)
    prod = tuple_poly_mul(mul, conjugated, coeffs, (Fraction(0),) * 4)
    assert all(c[1] == c[2] == c[3] == 0 for c in prod)
    return [c[0] for c in prod]


def test_conj_coeffs_examples():
    assert G_EXAMPLE.conj_coeffs() == Poly(H, [1 - K, -I, 1])
    central = Poly(H, [2, 0, 1])
    assert central.conj_coeffs() == central
    assert G_EXAMPLE.conj_coeffs().conj_coeffs() == G_EXAMPLE


def test_conj_coeffs_is_an_anti_homomorphism():
    rng = random.Random(3)
    for _ in range(100):
        f = rand_poly(rng, H, rng.randint(0, 3))
        g = rand_poly(rng, H, rng.randint(0, 3))
        assert (f * g).conj_coeffs() == g.conj_coeffs() * f.conj_coeffs()


def test_companion_worked_example():
    C = companion(G_EXAMPLE)
    assert C == Poly(QQ, [2, 0, 3, 0, 1])


def test_companion_of_linear():
    C = companion(Poly.x(H) - I)
    assert C == Poly(QQ, [1, 0, 1])


def test_companion_against_independent_convolution():
    g = Poly(H, [1, I, 1])  # x^2 + ix + 1
    C = companion(g)
    assert [c.a for c in C.coeffs] == oracle_companion(g)
    assert C == Poly(QQ, [1, 0, 3, 0, 1])
    rng = random.Random(13)
    for _ in range(50):
        f = rand_poly(rng, H, rng.randint(1, 3))
        assert [c.a for c in companion(f).coeffs] == oracle_companion(f)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["quat:-1,-1@Q", "quat:2,1/3@Q", "quat:-1,-1@Q(s5)"]),
    st.integers(1, 12),
    st.sampled_from([3, 64, 300]),
    st.randoms(use_true_random=False),
)
def test_companion_equals_the_full_conjugate_product(algebra, length, bits, rng):
    """companion takes only the column products that land on the ground
    field; its coefficients are those of the whole product conj(g)*g, on the
    schoolbook path and (from 6 coefficients of even height) the packed one."""
    from quatdyn.cli import parse_algebra

    spec = parse_algebra(algebra)
    width = spec.table.width

    def coeff():
        nums = [rng.randint(-(1 << bits), 1 << bits) if rng.random() < 0.8 else 0 for _ in range(4 * width)]
        return type(spec.one())(spec, nums, rng.randint(1, 12))

    g = Poly(spec, [coeff() for _ in range(length)] + [spec.one()])
    full = g.conj_coeffs() * g
    assert all(c.is_central for c in full.coeffs)
    assert [(c.nums, c.den) for c in companion(g).coeffs] == [(c.a.nums, c.a.den) for c in full.coeffs]


def test_companion_degree_and_centrality():
    rng = random.Random(19)
    for _ in range(50):
        g = rand_poly(rng, H, rng.randint(1, 3))
        C = companion(g)
        assert C.degree == 2 * g.degree


def test_companion_requires_quaternions_and_nonzero():
    O = OctSpec.standard()
    with pytest.raises(UnsupportedAlgebraError):
        companion(Poly(O, [0, 1]))
    with pytest.raises(ZeroPolynomialError):
        companion(Poly(H))


def test_extract_classes_worked_example():
    classes = extract_classes(Poly(QQ, [2, 0, 3, 0, 1]))
    assert [(c.trace, c.norm) for c in classes] == [
        (QQ.scalar(0), QQ.scalar(1)),
        (QQ.scalar(0), QQ.scalar(2)),
    ]
    assert all(c.exact for c in classes)


def test_extract_classes_single_quadratic():
    classes = extract_classes(Poly(QQ, [1, 0, 1]))
    assert [(c.trace, c.norm) for c in classes] == [(QQ.scalar(0), QQ.scalar(1))]


def test_extract_classes_rational_roots_and_scaling():
    # 2*(x - 1/2)^2 * (x^2 + 1): monic + denominator clearing both exercised
    C = Poly(
        QQ,
        [
            Fraction(1, 2),
            Fraction(-2),
            Fraction(5, 2),
            Fraction(-2),
            Fraction(2),
        ],
    )
    classes = extract_classes(C)
    pairs = [(c.trace, c.norm) for c in classes]
    assert (QQ.scalar(1), QQ.scalar(Fraction(1, 4))) in pairs
    assert (QQ.scalar(0), QQ.scalar(1)) in pairs
    central = [c for c in classes if c.is_central]
    assert len(central) == 1


def test_extract_classes_irrational_raises():
    with pytest.raises(ClassSearchIncompleteError) as info:
        extract_classes(Poly(QQ, [1, 0, 3, 0, 1]))
    assert info.value.remainder_degree == 4
    assert "numeric" in str(info.value)


def test_extract_classes_exact_needs_rationals():
    C = Poly(F5, [F5.scalar(1), F5.scalar(0), F5.scalar(1)])
    with pytest.raises(UnsupportedAlgebraError):
        extract_classes(C, mode="exact")


def test_extract_classes_numeric_quadratic_formula_oracle():
    # y^2 + 3y + 1 has roots (-3 +- sqrt5)/2; x^2 = y gives classes
    # (0, (3 -+ sqrt5)/2)
    C = Poly(QQ, [1, 0, 3, 0, 1])
    classes = extract_classes(C, mode="numeric", precision=128)
    assert len(classes) == 2
    assert all(not c.exact and c.precision == 128 for c in classes)
    lo, hi = sqrt_bracket(5, 120)
    expected = [(Fraction(3) - hi) / 2, (Fraction(3) + lo) / 2]
    tol = Fraction(1, 2**100)
    for cls, n_expected in zip(classes, expected):
        assert cls.trace.a == 0 or abs(cls.trace.a) < tol
        assert abs(cls.norm.a - n_expected) < Fraction(1, 2**60)


def test_extract_classes_numeric_real_roots_become_central():
    # (x^2 - 3x + 2)^2 has real roots 1 and 2
    base = Poly(QQ, [2, -3, 1])
    squared = [
        sum(
            (base.coeff(i) * base.coeff(k - i) for i in range(k + 1)),
            QQ.scalar(0),
        )
        for k in range(5)
    ]
    classes = extract_classes(Poly(QQ, squared), mode="numeric")
    assert len(classes) == 2
    assert all(c.is_central for c in classes)
    mus = sorted(float(c.trace) / 2 for c in classes)
    assert abs(mus[0] - 1) < 1e-30 and abs(mus[1] - 2) < 1e-30


def test_solve_in_class_worked_example():
    sols = [
        solve_in_class(G_EXAMPLE, ConjClass(QQ.scalar(0), QQ.scalar(1))),
        solve_in_class(G_EXAMPLE, ConjClass(QQ.scalar(0), QQ.scalar(2))),
    ]
    assert sols[0].kind == "point" and sols[0].point == -J
    assert sols[1].kind == "point" and sols[1].point == -I - J
    assert G_EXAMPLE(sols[0].point).is_zero
    assert G_EXAMPLE(sols[1].point).is_zero


def test_solve_in_class_sphere():
    g = Poly(H, [1, 0, 1])  # x^2 + 1
    sol = solve_in_class(g, ConjClass(QQ.scalar(0), QQ.scalar(1)))
    assert sol.kind == "sphere"
    for member in (I, J, K, (3 * I + 4 * J) / 5):
        assert member.in_class(QQ.scalar(0), QQ.scalar(1))
        assert g(member).is_zero


def test_solve_in_class_insoluble_class():
    # x^2 + 1 inside the class of norm 2: A = 0 but B = -1
    g = Poly(H, [1, 0, 1])
    sol = solve_in_class(g, ConjClass(QQ.scalar(0), QQ.scalar(2)))
    assert sol.kind == "none"


def test_solve_in_class_anomaly_on_foreign_class():
    # deliberately wrong class for x - i: candidate exists but fails checks
    g = Poly.x(H) - I
    sol = solve_in_class(g, ConjClass(QQ.scalar(0), QQ.scalar(2)))
    assert sol.kind == "anomaly"


def test_solve_in_class_central_candidates():
    g = Poly(H, [2, -3, 1])  # (x-1)(x-2), central
    one = solve_in_class(g, ConjClass(QQ.scalar(2), QQ.scalar(1)))
    assert one.kind == "point" and one.point == H.one()
    miss = solve_in_class(g, ConjClass(QQ.scalar(6), QQ.scalar(9)))
    assert miss.kind == "none"


def test_roots_worked_example():
    sols = roots(G_EXAMPLE)
    assert [s.kind for s in sols] == ["point", "point"]
    assert {s.point for s in sols} == {-J, -I - J}


def test_roots_linear():
    sols = roots(Poly.x(H) - I)
    assert len(sols) == 1 and sols[0].point == I


def test_roots_numeric_residuals():
    g = Poly(H, [1, I, 1])
    sols = roots(g, mode="numeric")
    assert len(sols) == 2
    for s in sols:
        assert s.kind == "point"
        assert s.residual is not None and s.residual <= 1e-9
        # independent exact re-evaluation at the reported point
        value = g(s.point)
        assert all(abs(float(c)) <= 1e-9 for c in value.coords())


def test_roots_numeric_over_quadratic_field():
    H5 = QuatSpec.standard(F5)
    s5 = F5.sqrt_gen()
    g = Poly.x(H5) - H5.element(s5)  # root sqrt5, central
    sols = roots(g, mode="numeric")
    assert len(sols) == 1 and sols[0].kind == "point"
    assert abs(float(sols[0].point.scalar_part()) - 5**0.5) < 1e-20


def test_roots_degenerate_inputs():
    assert roots(Poly.constant(H, I)) == []
    with pytest.raises(ZeroPolynomialError):
        roots(Poly(H))


def test_roots_spurious_real_pair_class_is_vacuous_sphere():
    # x^2 - 2 over rational quaternions: no element squares to 2, and the
    # class (0, -2) has no members; the reduction is trivially satisfied
    g = Poly(H, [-2, 0, 1])
    sols = roots(g)
    assert [s.kind for s in sols] == ["sphere"]
    assert sols[0].klass.norm == QQ.scalar(-2)


def test_roots_count_bound():
    rng = random.Random(37)
    for _ in range(40):
        deg = rng.randint(1, 3)
        g = rand_solvable_poly(rng, H, deg)
        sols = roots(g)
        useful = [s for s in sols if s.kind in ("point", "sphere")]
        assert len(useful) <= g.degree
        for s in sols:
            assert s.kind != "anomaly"
            if s.kind == "point":
                assert g(s.point).is_zero


def test_central_poly_render():
    assert Poly(QQ, [2, 0, 3, 0, 1]).render() == (
        "(1)*x^4 + (3)*x^2 + (2)"
    )


def test_roots_found_by_enumeration_lie_in_extracted_classes():
    # brute-force search over small coordinates; every root's (trace, norm)
    # must be among the extracted classes
    from itertools import product

    g = G_EXAMPLE
    classes = {
        (c.trace, c.norm) for c in extract_classes(companion(g))
    }
    span = (Fraction(-1), Fraction(0), Fraction(1))
    hits = 0
    for coords in product(span, repeat=4):
        z = H.element(*coords)
        if g(z).is_zero:
            hits += 1
            assert (z.trace(), z.norm()) in classes
    assert hits == 2  # -j and -i-j both have small coordinates


def test_random_conjugates_of_sphere_members_are_roots():
    rng = random.Random(67)
    g = Poly(H, [1, 0, 1])  # x^2 + 1, whole class of i solves
    classes = extract_classes(companion(g))
    assert len(classes) == 1
    T, N = classes[0].trace, classes[0].norm
    for _ in range(50):
        mu = rand_quat(rng, H, span=2, den=2)
        if mu.is_zero or not mu.norm():
            continue
        conjugate = mu * H.i() * mu.inv()
        assert conjugate.in_class(T, N)
        assert g(conjugate).is_zero


def test_subfield_roots_recovered():
    # coefficients in the complex subfield: classical roots 1 +- i come back
    # as a whole sphere for the class (2, 2)
    g = Poly(H, [2, -2, 1])
    sols = roots(g)
    assert [s.kind for s in sols] == ["sphere"]
    T, N = sols[0].klass.trace, sols[0].klass.norm
    assert (T, N) == (QQ.scalar(2), QQ.scalar(2))
    assert (H.one() + I).in_class(T, N)
    assert g(H.one() + I).is_zero
    # and a subfield instance with distinct central roots comes back as points
    h = Poly(H, [Fraction(2), -3, 1])
    pts = {s.point for s in roots(h) if s.kind == "point"}
    assert pts == {H.one(), H.element(2)}


# -- the class reduction against the power recurrence ---------------------------


def _power_recurrence(g: Poly, T, N):
    """A and B with g(z) = A z + B in the class (T, N), from z^k = p_k z + q_k."""
    field = g.spec.field
    p, q = field.zero(), field.one()
    A = B = g.spec.zero()
    for c in g.coeffs:
        A, B = A + c * p, B + c * q
        p, q = T * p + q, -N * p
    return A, B


def _solver_corpus():
    rng = random.Random(71)
    polys = [G_EXAMPLE, Poly(H, [1, 0, 1]), Poly(H, [2, -3, 1]), Poly(H, [-2, 0, 1]),
             Poly(H, [2, -2, 1]), Poly(H, [1, 1, 1]), Poly.x(H) - I]
    polys += [rand_solvable_poly(rng, H, rng.randint(1, 4)) for _ in range(30)]
    for g in polys:
        classes = set(extract_classes(companion(g)))
        # foreign classes too: they give none and anomaly
        classes |= {ConjClass(QQ.scalar(0), QQ.scalar(2)), ConjClass(QQ.scalar(6), QQ.scalar(9))}
        for klass in sorted(classes, key=lambda k: (k.trace, k.norm)):
            yield g, klass


def test_solve_in_class_agrees_with_the_power_recurrence():
    kinds = set()
    for g, klass in _solver_corpus():
        T, N = klass.trace, klass.norm
        A, B = _power_recurrence(g, T, N)
        assert g.quotient_value((H.one(), H.zero()), T, N) == (A, B)
        sol = solve_in_class(g, klass)
        kinds.add(sol.kind)
        if klass.is_central:
            mu = H.coerce(T / 2)
            assert sol.kind == ("point" if g(mu).is_zero else "none")
        elif A.is_zero:
            assert sol.kind == ("sphere" if B.is_zero else "none")
        else:
            lam = -(A.inv() * B)
            ok = lam.in_class(T, N) and g(lam).is_zero
            assert (sol.kind, sol.point) == (("point", lam) if ok else ("anomaly", None))
    assert kinds == {"point", "sphere", "none", "anomaly"}


NUMERIC_CORPUS = [
    ("quat:-1,-1@Q", "x^2+i*x+1", ["point", "point"]),
    ("quat:-1,-1@Q", "x^2+1", ["sphere"]),
    ("quat:-1,-1@Q", "x^2+x+1", ["sphere"]),
    ("quat:-1,-1@Q", "3*x^2-4*x+1", ["point", "point"]),
    ("quat:-1,-1@Q", "x^2+i*x+1+i*j", ["point", "point"]),
    ("quat:-1,-1@Q", "x^2-2", ["point", "point"]),
    # p_3 = T^2 - N cancels on the complex class: a sphere, not an anomaly
    ("quat:-1,-1@Q", "x^3-2", ["sphere", "point"]),
    ("quat:-1,-1@Q", "x^3+x+1", ["point", "sphere"]),
    ("quat:-1,-1@Q", "(x^2+1)*(x-i)", ["sphere"]),
    ("quat:-1,-1@Q", "x^4+(1+i)*x^2+j*x+3", ["point"] * 4),
    ("quat:-1,-1@Q", "x^5-x+i", ["point"] * 5),
    ("quat:-1,-1@Q(s5)", "x-s5", ["point"]),
    ("quat:-1,-1@Q(s5)", "x^2+s5*i*x+1", ["point", "point"]),
    ("quat:-1,-1@Q(s5)", "x^3+(1+s5)*j*x+2", ["point"] * 3),
    # coefficients a + b*sqrt d that nearly cancel still have sizes near |a + b*sqrt d|
    ("quat:-1,-1@Q(s2)", "(1-s2)*x^2-2*(1-s2)", ["point", "point"]),
    ("quat:-1,-1@Q(s5)", "(s5-2)*x^3-(s5-2)*i", ["point"] * 3),
    # past the double range: sizes and tests are exact, so these get verdicts
    ("quat:-1,-1@Q", "x^2-10^700", ["point", "point"]),
    ("quat:-1,-1@Q", "x^2+10^400", ["sphere"]),
    # the fixed points of x^2+10^350*x are the roots of f(x) - x
    ("quat:-1,-1@Q", "x^2+(10^350-1)*x", ["point", "point"]),
    # the central class holds no root the working precision resolves, as for 10^100
    ("quat:-1,-1@Q", "x^2+10^200*x+i", ["point", "point", "anomaly"]),
    ("quat:-1,-1@Q", "x^2+10^300*x+i", ["point", "point", "anomaly"]),
    ("quat:-1,-1@Q", "10^400*x^2+i", ["anomaly"]),
]


@pytest.mark.parametrize("algebra,text,kinds", NUMERIC_CORPUS)
def test_numeric_class_kinds(algebra, text, kinds):
    from quatdyn.cli import parse_algebra

    g = parse_poly(text, parse_algebra(algebra))
    assert [s.kind for s in roots(g, mode="numeric")] == kinds


def _bounds(s) -> tuple[Fraction, Fraction]:
    """Rational bounds, 2**-60 apart relative, of a ground-field scalar a + b*sqrt d."""
    bits = 64
    while True:
        lo, hi = sorted(s.a + s.b * r for r in sqrt_bracket(s.field.d, bits)) if s.b else (s.a, s.a)
        if hi - lo <= abs(lo) / 2**60:
            return lo, hi
        bits *= 2


def _norm_below(q) -> Fraction:
    """A lower bound of the Euclidean norm of a 4-tuple of ground-field scalars."""
    s = max(_bounds(sum(c * c for c in q))[0], Fraction(0))
    return Fraction(math.isqrt(s.numerator * s.denominator << 128), s.denominator << 64)


@pytest.mark.parametrize("algebra,text", [row[:2] for row in NUMERIC_CORPUS])
def test_numeric_points_hold_by_exact_substitution(algebra, text):
    """Each numeric point, past the double range too, is re-checked in exact
    ground-field scalars with the table multiplier: |g(lam)| is at most the
    tolerance times sum |c_k| |lam|^k, and the residual reported is |g(lam)|.
    Each anomaly names the precision that would resolve its class."""
    from quatdyn.cli import parse_algebra
    from quatdyn.solver import DEFAULT_TOLERANCE

    g = parse_poly(text, parse_algebra(algebra))
    coeffs = [coeff.coords() for coeff in g.coeffs]
    for sol in roots(g, mode="numeric"):
        if sol.kind == "anomaly":
            assert "bits would resolve the class" in sol.detail
        if sol.kind != "point":
            continue
        lam = sol.point.coords()
        value = coeffs[-1]
        for c in reversed(coeffs[:-1]):  # Horner's rule
            value = tuple(a + b for a, b in zip(table_qmul(-1, -1, value, lam), c))
        lo, hi = _bounds(sum(c * c for c in value))
        size = _norm_below(lam)
        scale = sum(_norm_below(c) * size**k for k, c in enumerate(coeffs))
        assert hi <= (Fraction(DEFAULT_TOLERANCE) * scale) ** 2
        reported = Fraction(sol.residual) ** 2
        assert reported == hi == 0 or lo * (1 - Fraction(1, 2**50)) <= reported <= hi * (1 + Fraction(1, 2**50))


def test_size_is_a_tight_lower_bound_where_radicals_cancel():
    """|a + b*sqrt d| is sized to within 2**-60 below, also where it nearly
    cancels: a size of 0 for 1 - s2 would make every test scaled by it
    demand an exact zero."""
    from quatdyn.solver import _size

    for d, unit in [(2, 1), (5, 1), (5, Fraction(1, 10**40)), (2, 10**300)]:
        field = FieldSpec(d)
        spec = QuatSpec(field, -1, -1)
        # 1393 - 985*s2 and 682 - 305*s5 are below 10^-3
        for a, b in [(1, -1), (-2, 1), (3, -1), (-2, 2), (-1, 1), (1393, -985), (682, -305)]:
            z = field.scalar(a * unit, b * unit)
            for v, coords in [(z, [z]), (spec.element(z, z * z, 0, z), [z, z * z, z])]:
                m, e = _size(v)
                size = m * Fraction(2) ** e
                lo, hi = _bounds(sum(c * c for c in coords))
                assert size**2 <= lo and hi < (size * (1 + Fraction(1, 2**60))) ** 2


def test_numeric_none_needs_the_disks_to_exclude_the_candidate():
    """A root below the working precision is not claimed absent.

    The roots +-i/10^60 of the companion 10^120 x^2 + 1 round to 0 at 128
    and 256 bits, so the class snaps to (0, 0); the inclusion disks cannot
    exclude its candidate 0, so the class is an anomaly that names the
    precision that resolves it, and that precision finds the point.
    """
    g = parse_poly("10^60*x-i", H)
    named = set()
    for precision in (128, 256):
        [sol] = roots(g, mode="numeric", precision=precision)
        assert (sol.kind, sol.klass.trace, sol.klass.norm) == ("anomaly", 0, 0)
        assert not sol.klass.excluded
        bits = int(re.search(r"about (\d+) bits", sol.detail).group(1))
        assert bits > precision
        named.add(bits)
    for bits in named | {512}:
        [found] = roots(g, mode="numeric", precision=bits)
        assert found.kind == "point"
        assert abs(float(found.point.coords()[1] * 10**60) - 1) < 1e-9


def test_small_non_real_root_is_not_snapped_to_a_central_class():
    """The roots +-i/10^20 of the companion 10^40 x^2 + 1 lie 2^-66 from the
    real axis, within the near-real tolerance 2^-64 at 128 bits, but their
    inclusion disks (radius near 10^-28) do not meet the axis: they are a
    conjugate pair, whose class holds the point i/10^20."""
    g = parse_poly("10^20*x-i", H)
    [sol] = roots(g, mode="numeric", precision=128)
    assert sol.kind == "point"
    # the companion's coefficients are rounded to 2^-160, which moves 10^-40 a little
    assert sol.klass.trace == 0 and abs(float(sol.klass.norm * 10**40) - 1) < 1e-6
    assert abs(float(sol.point.coords()[1] * 10**20) - 1) < 1e-9

    # with |Im z| just inside one disk of the pair and just outside the
    # other's, the pair still gets one verdict, so the roots still pair up
    from quatdyn.aberth import aberth_roots, inclusion_radii, to_grid
    from quatdyn.solver import _real_roots

    fracs = [int(c.to_real(160) * 2**160) for c in companion(g).coeffs]
    E, pts = to_grid(aberth_roots(fracs, precision=128), 192)
    assert inclusion_radii(fracs, E, pts) is not None
    ims = [Fraction(abs(B), 1 << E) for _, B in pts]
    assert ims[0] != ims[1]  # the approximants are not exact conjugates
    below = 1 - Fraction(1, 2**40)
    for radii in ([ims[0], ims[1] * below], [ims[0] * below, ims[1]]):
        assert _real_roots(pts, radii, E, 64) == [False, False]
    assert _real_roots(pts, ims, E, 64) == [True, True]
    assert _real_roots(pts, None, E, 64) == [True, True]


# -- exact extraction against sympy's factorization -------------------------------


def _planted(den, roots):
    g = Poly(H, [1])
    for coords in roots:
        g = g * Poly(H, [-H.element(*(Fraction(c, den) for c in coords)), 1])
    return companion(g)


planted_companions = st.builds(
    _planted,
    st.sampled_from([1, 3, 11]),
    st.lists(st.tuples(*[st.integers(-7, 7)] * 4), min_size=1, max_size=4),
)
dense_centrals = st.lists(st.integers(-9, 9), min_size=3, max_size=6).filter(
    lambda cs: cs[-1] != 0
).map(lambda cs: Poly(QQ, cs))


@settings(max_examples=60, deadline=None)
@given(st.one_of(planted_companions, dense_centrals))
def test_exact_classes_match_sympy_factorization(C):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.a.numerator, c.a.denominator) for c in reversed(C.coeffs)], x)
    expected, remainder = set(), 0
    for factor, mult in sympy.factor_list(poly)[1]:
        cs = [Fraction(int(c.p), int(c.q)) for c in factor.all_coeffs()]
        if len(cs) == 2:  # a*x + b: the root -b/a
            mu = -cs[1] / cs[0]
            expected.add((2 * mu, mu * mu))
        elif len(cs) == 3:  # a*x^2 + b*x + c, irreducible over Q
            expected.add((-cs[1] / cs[0], cs[2] / cs[0]))
        else:
            remainder += (len(cs) - 1) * mult
    if remainder:
        with pytest.raises(ClassSearchIncompleteError) as info:
            extract_classes(C)
        assert info.value.remainder_degree == remainder
        classes = info.value.classes
    else:
        classes = extract_classes(C)
    assert [(k.trace.a, k.norm.a) for k in classes] == sorted(expected)


def test_denominator_eleven_quartic_returns_every_planted_class():
    roots = [(3, -7, 2, 5), (-4, 1, 6, -2), (5, 5, -3, 1), (-1, -6, -4, 7)]
    start = time.perf_counter()
    classes = extract_classes(_planted(11, roots))
    assert time.perf_counter() - start < 5
    planted = sorted({(Fraction(2 * r[0], 11), Fraction(sum(c * c for c in r), 121)) for r in roots})
    assert [(k.trace.a, k.norm.a) for k in classes] == planted


def test_irrational_sextic_is_settled_quickly():
    g = parse_poly("x^3 + 1/11*i*x + 1/13*j", H)
    start = time.perf_counter()
    with pytest.raises(ClassSearchIncompleteError) as info:
        roots(g)
    assert time.perf_counter() - start < 5
    assert info.value.remainder_degree == 6
    assert info.value.classes == ()


def test_inclusion_disks_and_certificate():
    from quatdyn.aberth import inclusion_radii
    from quatdyn.solver import _FactorSearch

    # y^2 - 2 at the approximants +-22/16: each radius is 2*|P(z)|/|2z| and
    # each disk holds its root
    z = Fraction(22, 16)
    exact = 2 * abs(z * z - 2) / (2 * z)
    radii = inclusion_radii([-2, 0, 1], 4, [(22, 0), (-22, 0)])
    for r in radii:
        assert exact <= r <= exact * (1 + Fraction(1, 2**50))
        assert (z - r) ** 2 <= 2 <= (z + r) ** 2
    assert inclusion_radii([-2, 0, 1], 4, [(1, 0), (1, 0)]) is None

    # (y - 64)(y - 65): exact approximants certify; 64.3 and 64.7 give radii
    # near 1.05, too wide to fix a candidate to within 1/2
    D = [64 * 65, -129, 1]
    unit = 1 << 20
    assert _FactorSearch(D, D)._certify(20, [(64 * unit, 0), (65 * unit, 0)])
    assert not _FactorSearch(D, D)._certify(20, [(round(64.3 * unit), 0), (round(64.7 * unit), 0)])

    # (y - 1)(y - 65/64) at 1 + 0.3/64 and 1 + 0.7/64: radii near 0.016 are
    # small enough, but the two disks overlap, so nothing is certified
    P = [65, -129, 64]
    unit = 1 << 30
    near = [(round((1 + 0.3 / 64) * unit), 0), (round((1 + 0.7 / 64) * unit), 0)]
    assert max(inclusion_radii(P, 30, near)) < Fraction(1, 32)
    assert not _FactorSearch([1, 1], P)._certify(30, near)


# -- the squarefree part against sympy ---------------------------------------------


def _planted_repeats(rng, field):
    """A non-monic product of linear and quadratic factors over the field,
    at least one of them repeated."""
    p = Poly(field, [rand_scalar(rng, field, span=9) or 1])
    for mult in [rng.randint(2, 3)] + [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]:
        low = [rand_scalar(rng, field) for _ in range(rng.randint(1, 2))]
        p = p * Poly(field, low + [1]) ** mult
    return p


def _to_sympy(sympy, c):
    root = sympy.sqrt(c.field.d) if c.b else 0
    return sympy.Rational(c.a.numerator, c.a.denominator) + sympy.Rational(
        c.b.numerator, c.b.denominator
    ) * root


@pytest.mark.parametrize("d", [None, 2, 5])
@pytest.mark.parametrize("seed", range(5))
def test_squarefree_matches_sympy(d, seed):
    from quatdyn.solver import _squarefree

    sympy = pytest.importorskip("sympy")
    field = FieldSpec(d)
    p = _planted_repeats(random.Random(f"{d}:{seed}"), field)
    y = sympy.Symbol("y")
    extension = {} if d is None else {"extension": sympy.sqrt(d)}
    sp = sympy.Poly([_to_sympy(sympy, c) for c in reversed(p.coeffs)], y, **extension)
    expected = sp.sqf_part().monic().all_coeffs()[::-1]
    got = _squarefree(list(p.coeffs))
    assert len(got) == len(expected) < len(p.coeffs)
    assert all(sympy.expand(_to_sympy(sympy, g) - e) == 0 for g, e in zip(got, expected))


def test_dense_degree_24_numeric_roots_stay_within_the_fuzz_case_budget():
    """The squarefree part's Euclid used to swell to 23,000-bit remainders
    here and take about 4 s; monic divisors keep them near 1,000 bits."""
    rng = random.Random(24)
    g = Poly(H, [H.element(*(rng.randint(-9, 9) for _ in range(4))) for _ in range(24)] + [1 + I])
    start = time.perf_counter()
    sols = roots(g, mode="numeric")
    assert time.perf_counter() - start < 3.0
    assert len(sols) == 24 and all(s.kind == "point" for s in sols)
