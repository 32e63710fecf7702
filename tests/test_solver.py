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
    ConvergenceError,
    FieldSpec,
    OctSpec,
    Poly,
    QQ,
    QuatSpec,
    SplitAlgebraError,
    UnsupportedAlgebraError,
    ZeroPolynomialError,
    companion,
    parse_poly,
    extract_classes,
    roots,
    solve_in_class,
    solver,
)
from quatdyn import _arith

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
    with pytest.raises(UnsupportedAlgebraError):
        solve_in_class(Poly(O, [0, 1]), ConjClass(QQ.scalar(0), QQ.scalar(0)))
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
    with pytest.raises(ValueError):
        extract_classes(C, mode="approx")


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
        assert g.reduction(T, N) == (A, B)
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
    # A is i plus a central scalar in every class, so no class is a sphere:
    # the companion is squarefree, and only the residuals judge
    ("quat:-1,-1@Q", "x^6+i*x+10^20", ["point"] * 6),
    ("quat:-1,-1@Q", "x^8+i*x+10^20", ["point"] * 8),
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
    zs = aberth_roots(fracs, precision=128)
    E, pts = to_grid(zs, 192)
    assert inclusion_radii(fracs, E, pts, 0, zs, 128 // 2) is not None
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

    # y^2 - 2 at the approximants +-22/16: each radius is 2*|P(z)|/|2z| and
    # each disk holds its root
    z = Fraction(22, 16)
    exact = 2 * abs(z * z - 2) / (2 * z)
    radii = inclusion_radii([-2, 0, 1], 4, [(22, 0), (-22, 0)], 0, [(22, 0, 4), (-22, 0, 4)], 0)
    for r in radii:
        assert exact <= r <= exact * (1 + Fraction(1, 2**50))
        assert (z - r) ** 2 <= 2 <= (z + r) ** 2
    assert inclusion_radii([-2, 0, 1], 4, [(1, 0), (1, 0)], 0, [(1, 0, 4), (1, 0, 4)], 0) is None


# -- exact extraction by roots mod p, lifted p-adically -------------------------------


def _remainder_and_classes(C):
    try:
        return 0, extract_classes(C)
    except ClassSearchIncompleteError as exc:
        return exc.remainder_degree, list(exc.classes)


@pytest.mark.parametrize(
    "text,remainder,count",
    [
        ("x^2+10^1000*x+i", 4, 0),
        ("x^128+i*x+1", 256, 0),
        ("(x-1-i)*(x-2-j)*(x+3*k)*(x^2+10^400)*(x^30+i*x+1)", 60, 4),
    ],
)
def test_high_height_and_sparse_high_degree_exact_classes_answer_quickly(text, remainder, count):
    """The disk-certified search took 18.6 s on the product and did not end
    on the other two; roots mod p settle each within a fuzz case's budget."""
    from test_fuzz import CASE_SECONDS

    start = time.perf_counter()
    with pytest.raises(ClassSearchIncompleteError) as info:
        roots(parse_poly(text, H))
    assert time.perf_counter() - start < CASE_SECONDS
    assert info.value.remainder_degree == remainder
    assert len(info.value.classes) == count


def test_exact_extraction_calls_nothing_in_aberth(monkeypatch):
    from quatdyn import aberth

    def refuse(*args, **kwargs):
        raise AssertionError("exact extraction called into aberth")

    imported = [name for name, v in vars(solver).items() if getattr(v, "__module__", None) == aberth.__name__]
    assert "aberth_roots" in imported
    for name in imported:
        monkeypatch.setattr(solver, name, refuse)
    found = [
        _remainder_and_classes(companion(parse_poly(text, H)))
        for text in ("x^2+i*x+1+i*j", "(x-1)*(x-2*i)*(x+3)", "x^3 + 1/11*i*x + 1/13*j", "x^2-2")
    ]
    assert [(r, len(classes)) for r, classes in found] == [(0, 2), (0, 3), (6, 0), (0, 1)]


_SMALL_PRIMES = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _planted_factors(rng):
    """A companion-sized integer polynomial (degree <= 24): a content above
    1 times zero roots, linear and quadratic factors with coefficients up to
    10**100 and leads of many small primes, some repeated, and a dense
    cubic."""
    big = lambda: rng.choice([rng.randint(-9, 9), rng.randint(-(10**100), 10**100)]) or 1
    lead = lambda: rng.choice([big(), math.prod(rng.sample(_SMALL_PRIMES, rng.randint(1, 5)))])
    f = [0] * rng.randint(0, 2) + [1]
    factors = [[big(), lead()] for _ in range(rng.randint(0, 3))]
    factors += [[big(), rng.randint(-9, 9), lead()] for _ in range(rng.randint(0, 3))]
    factors += [[rng.randint(-9, 9) for _ in range(3)] + [rng.randint(1, 9)]] * rng.randint(0, 1)
    for factor in factors:
        for _ in range(rng.choice([1, 1, 2])):
            if len(f) + len(factor) - 1 <= 25:
                f = _times(f, factor)
    content = rng.randint(2, 30)
    return [content * c for c in f] if len(f) > 1 else [3, 3]


@pytest.mark.parametrize("seed", range(48))
def test_exact_classes_match_factor_list_on_planted_products(seed, monkeypatch):
    sympy = pytest.importorskip("sympy")
    f = _planted_factors(random.Random(seed))
    assert len(f) <= 25
    expected, remainder = set(), 0
    for factor, mult in sympy.factor_list(sympy.Poly(f[::-1], sympy.Symbol("y")))[1]:
        cs = [Fraction(int(c)) for c in factor.all_coeffs()]
        if len(cs) == 2:
            mu = -cs[1] / cs[0]
            expected.add((2 * mu, mu * mu))
        elif len(cs) == 3:
            expected.add((-cs[1] / cs[0], cs[2] / cs[0]))
        else:
            remainder += (len(cs) - 1) * mult
    primes, local = [], _arith._local_factors
    monkeypatch.setattr(_arith, "_local_factors", lambda P: primes.append((P[-1], local(P)[0])) or local(P))
    got, classes = _remainder_and_classes(Poly(QQ, f))
    assert got == remainder
    assert [(k.trace.a, k.norm.a) for k in classes] == sorted(expected)
    assert all(p > 11 for lead, p in primes if lead % 11 == 0)


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


# -- quatdyn._arith on the solver's inputs: modular gcd, primes, factors mod p -----


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _planted_integer(rng, height=8):
    """An integer polynomial with a content above 1, a non-monic lead, at
    least one repeated factor, coefficients of about height bits and, two
    times in three, a zero constant term."""
    f = [rng.choice([-12, -6, -2, 3, 4, 10])]
    mults = [rng.randint(2, 3)] + [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
    bound = 1 << max(height // sum(mults), 3)
    for mult in mults:
        factor = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 2))] + [rng.randint(1, bound)]
        for _ in range(mult):
            f = _times(f, factor)
    return [0] * rng.randint(0, 2) + f


def _dense_companion_48():
    """The monic integer companion D of a dense degree-24 quaternion polynomial."""
    rng = random.Random(48)
    g = Poly(H, [H.element(*(rng.randint(-9, 9) for _ in range(4))) for _ in range(24)] + [1])
    # D(y) = s**n * C(y/s) / lead
    [cs] = companion(g).cols
    lead, n = cs[-1], len(cs) - 1
    s = math.lcm(*(abs(lead) // math.gcd(c, lead) for c in cs))
    return [c * s ** (n - i) // lead for i, c in enumerate(cs)]


@pytest.mark.parametrize("seed", range(48))
def test_integer_squarefree_matches_sympy(seed):
    """Heights from 8 bits up to 2**2000, every one with a repeated factor."""
    from quatdyn._arith import _integer_squarefree

    sympy = pytest.importorskip("sympy")
    f = _planted_integer(random.Random(seed), height=[8, 64, 500, 2000][seed % 4])
    # sympy's part over Z is primitive with a positive lead; ours has f's sign
    expected = sympy.Poly(f[::-1], sympy.Symbol("y")).sqf_part().all_coeffs()[::-1]
    sign = 1 if f[-1] > 0 else -1
    assert _integer_squarefree(f) == [sign * int(c) for c in expected]
    assert len(expected) < len(f)


@pytest.mark.parametrize("case", ["prime divides the lead", "unlucky prime"])
def test_integer_squarefree_passes_over_bad_primes(case):
    """(p0*x - 1)*(x - 1)^2 makes the first prime p0 divide f's lead, so it is
    skipped; mod p1, (x - 1)^2*(x - 1 - p1) is (x - 1)^3, whose gcd image has
    a higher degree than the true gcd's, so that prime is dropped."""
    from quatdyn._arith import _integer_squarefree, _prime

    sympy = pytest.importorskip("sympy")
    square = _times([-1, 1], [-1, 1])
    f = _times([-1, _prime(0)], square) if case == "prime divides the lead" else _times(square, [-1 - _prime(1), 1])
    expected = sympy.Poly(f[::-1], sympy.Symbol("y")).sqf_part().all_coeffs()[::-1]
    assert _integer_squarefree(f) == [int(c) for c in expected]


def test_dense_degree_48_squarefree_part_takes_milliseconds():
    """Monic Euclid on Fractions took 34-47 ms here, a heuristic gcd (one
    integer gcd of values) about 0.1 ms, and the modular gcd about 0.8 ms."""
    from quatdyn._arith import _integer_squarefree

    D = _dense_companion_48()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        P = _integer_squarefree(D)
        times.append(time.perf_counter() - start)
    assert P == D  # squarefree already
    assert min(times) < 0.02



def test_high_sevens_squarefree_part_packs_in_linear_time():
    """The squarefree part of the companion of a 1000-digit coefficient, which
    is a square.  A heuristic gcd, one integer gcd of the values at an
    integer xi, took 3.9 s with f(xi) by Horner's rule and the digits read
    back by repeated division, and 0.7 s through the kernel's byte slots
    (2-core x86 host, CPython 3.11); the modular gcd takes about 0.06 s."""
    g = parse_poly(f"({'7' * 1000})*x^99+4*x^6", H)
    start = time.perf_counter()
    with pytest.raises(ClassSearchIncompleteError) as info:
        roots(g)
    assert time.perf_counter() - start < 2.0
    assert info.value.remainder_degree == 186


_LEAD_PRIMES = [p for p in range(11, 5988) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@pytest.mark.parametrize(
    "text,remainder",
    [
        (f"({'7' * 4000})*x^99+4*x^6", 186),
        (f"({'*'.join(map(str, _LEAD_PRIMES))})*x^128+i*x+1", 256),
    ],
    ids=["4000 sevens", "lead of every prime from 11 to 5987"],
)
def test_squarefree_part_and_local_roots_stay_fast_at_high_height_and_prime_rich_leads(
    text, remainder
):
    """A heuristic gcd took the squarefree part by one integer gcd of about
    n*H bits: 10.4 s on the 4000 sevens, whose companion is a square, and
    13.4 s on the lead of every prime from 11 to 5987, which also made the
    roots mod p = 6007 a scan of all of F_p (in-process, 2-core x86 host,
    CPython 3.11).  The modular gcd and the roots as gcd(P, y**p - y) take
    well under a fuzz case's budget."""
    from test_fuzz import CASE_SECONDS

    g = parse_poly(text, H)
    start = time.perf_counter()
    with pytest.raises(ClassSearchIncompleteError) as info:
        roots(g)
    assert time.perf_counter() - start < CASE_SECONDS
    assert info.value.remainder_degree == remainder


def test_is_prime_matches_trial_division():
    for n in range(11, 10**5, 2):
        assert _arith._is_prime(n) == all(n % d for d in range(3, math.isqrt(n) + 1, 2)), n
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    assert not _arith._is_prime(3215031751)
    assert not _arith._is_prime(3825123056546413051)
    assert _arith._is_prime((1 << 61) - 1) and not _arith._is_prime((1 << 61) + 1)


def _local_roots_by_scan(monic, p):
    """The roots in F_p of a monic P mod p, by evaluating it at 0 ... p-1."""
    return [r for r in range(p) if not sum(c * pow(r, k, p) for k, c in enumerate(monic)) % p]


def _divides_mod(h, f, p):
    """Whether the monic h divides f over F_p, by long division."""
    r = list(f)
    for k in reversed(range(len(h) - 1, len(r))):
        c = r[k] % p
        for i, v in enumerate(h):
            r[k - len(h) + 1 + i] -= c * v
    return not any(v % p for v in r)


@pytest.mark.parametrize("seed", range(30))
def test_local_factors_match_the_scan_and_an_enumeration(seed):
    """The roots in F_p against a scan of F_p, and the irreducible
    quadratics against every monic quadratic over F_p without a root, on
    squarefree P whose leads rule out random primes from 11 on."""
    rng = random.Random(seed)
    f = [rng.choice([1, math.prod(rng.sample(_SMALL_PRIMES, rng.randint(1, 4)))])]
    for _ in range(rng.randint(1, 5)):
        f = _times(f, [rng.randint(-60, 60) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)])
    P = _arith._integer_squarefree(f)
    p, got_roots, quadratics = _arith._local_factors(P)
    assert P[-1] % p and all(p % d for d in range(2, math.isqrt(p) + 1))
    monic = [c * pow(P[-1], -1, p) % p for c in P]
    assert got_roots == _local_roots_by_scan(monic, p)
    expected = [
        [b, a, 1]
        for a in range(p)
        for b in range(p)
        if (a * a - 4 * b) % p and pow(a * a - 4 * b, (p - 1) // 2, p) != 1
        and _divides_mod([b, a, 1], monic, p)
    ]
    assert sorted(quadratics) == expected

# -- numeric points rounded from numerators ----------------------------------------


def _inverse_then_to_real(A, B, bits):
    """-A**-1 * B formed exactly, then rounded coordinatewise by to_real."""
    lam = -(A.inv() * B)
    return A.spec.element(*(A.spec.field.scalar(c.to_real(bits)) for c in lam.coords()))


@pytest.mark.parametrize(
    "algebra",
    ["quat:-1,-1@Q", "quat:2,-3/7@Q", "quat:-1,-1@Q(s2)", "quat:1,-1@Q(s2)", "quat:-1,-1@Q(s5)",
     "quat:2,1/3@Q(s5)"],
)
def test_rounded_point_matches_the_inverse_rounded_by_to_real(algebra):
    from quatdyn.cli import parse_algebra
    from quatdyn.solver import _class_point

    spec = parse_algebra(algebra)
    rng = random.Random(algebra)
    for _ in range(60):
        A, B = rand_quat(rng, spec, span=6, den=7), rand_quat(rng, spec, span=6, den=7)
        if A.is_zero or not A.norm():
            continue
        for bits in (1, 7, 64, 200):
            assert _class_point(A, B, bits) == _inverse_then_to_real(A, B, bits)
        assert _class_point(A, B) == -(A.inv() * B)  # the exact point


def test_rounded_point_ties_go_to_even():
    from quatdyn.solver import _class_point

    bits = 10
    for spec in (H, QuatSpec.standard(F5)):
        # -B/2 is (2m + 1)/2**(bits + 1): half-way between m and m + 1 units
        ms = (4, 5, -4, -5)
        B = spec.element(*(Fraction(-(2 * m + 1), 2**bits) for m in ms))
        expected = spec.element(*(Fraction(m + (m & 1), 2**bits) for m in ms))
        assert _class_point(spec.coerce(2), B, bits) == expected
        assert _inverse_then_to_real(spec.coerce(2), B, bits) == expected


def test_rounded_point_with_a_negative_field_norm():
    from quatdyn.cli import parse_algebra
    from quatdyn.solver import _class_point

    spec = parse_algebra("quat:1,-1@Q(s2)")
    F2 = spec.field
    A = spec.element(1, F2.scalar(1, 1), 0, Fraction(1, 3))
    n = A.norm()  # 1 - (1 + s2)^2 + 1/9: its field norm is negative
    assert n.a * n.a - 2 * n.b * n.b < 0
    B = spec.element(F2.scalar(Fraction(1, 3), 2), -1, F2.scalar(0, 5), Fraction(7, 2))
    for bits in (1, 16, 128):
        assert _class_point(A, B, bits) == _inverse_then_to_real(A, B, bits)
    assert _class_point(A, B) == -(A.inv() * B)


def test_split_class_keeps_its_anomaly_detail():
    from quatdyn.cli import parse_algebra
    from quatdyn.solver import _class_point

    spec = parse_algebra("quat:1,-1@Q")
    A = spec.element(1, 1)  # norm 1 - 1 = 0
    with pytest.raises(SplitAlgebraError) as inverted:
        A.inv()
    for bits in (64, None):
        with pytest.raises(SplitAlgebraError) as formed:
            _class_point(A, spec.one(), bits)
        assert str(formed.value) == str(inverted.value)
    # both classes of x^2 + (1 + i)x + 2 reduce to A*z + B with N(A) = 0
    g = parse_poly("x^2+(1+i)*x+2", spec)
    for mode in ("exact", "numeric"):
        sols = roots(g, mode=mode)
        assert [(s.kind, s.klass.trace, s.klass.norm) for s in sols] == [
            ("anomaly", -2, 2), ("anomaly", 0, 2)
        ]
        assert all(s.detail == str(inverted.value) for s in sols)


def test_numeric_solving_inverts_and_converts_nothing(monkeypatch):
    from quatdyn import Quaternion, Scalar

    g5 = parse_poly("x^3+(1+s5)*j*x+2", QuatSpec.standard(F5))
    calls = [(parse_poly("x^2+i*x+1/3", H), "numeric"), (g5, "numeric")]
    calls += [(parse_poly(text, H), "exact") for text in ["(x-1/3)*(x^2+2)*(x-i)", "(x-1/3)*(x-1-j)*(x-i)"]]
    before = [roots(g, mode=mode) for g, mode in calls]
    # (kind, exact, central): the exact classes give central points, a sphere
    # and points formed as -A**-1 * B
    kinds = [(s.kind, s.klass.exact, s.klass.is_central) for sols in before for s in sols]
    assert sorted(kinds) == sorted(
        [("point", False, False)] * 5 + [("point", True, True)] * 2 + [("point", True, False)] * 3
        + [("sphere", True, False)]
    )

    def refuse(*args):
        raise AssertionError("class solving inverted or converted")

    monkeypatch.setattr(Quaternion, "inv", refuse)
    monkeypatch.setattr(Scalar, "to_real", refuse)
    assert [roots(g, mode=mode) for g, mode in calls] == before


def test_dense_degree_24_numeric_roots_stay_within_the_fuzz_case_budget():
    """The squarefree part's Euclid used to swell to 23,000-bit remainders
    here and take about 4 s; monic divisors keep them near 1,000 bits."""
    rng = random.Random(24)
    g = Poly(H, [H.element(*(rng.randint(-9, 9) for _ in range(4))) for _ in range(24)] + [1 + I])
    start = time.perf_counter()
    sols = roots(g, mode="numeric")
    assert time.perf_counter() - start < 3.0
    assert len(sols) == 24 and all(s.kind == "point" for s in sols)


def test_extract_classes_of_a_constant_is_empty():
    for C in (Poly(QQ, [3]), Poly(F5, [F5.scalar(1, 2)])):
        for mode in ("exact", "numeric") if C.spec is QQ else ("numeric",):
            assert extract_classes(C, mode=mode) == []


def test_unresolved_real_cluster_fails_the_conjugate_pairing():
    """Five roots within 10^-30 of 1 (1, and 1 +- i*10^-30 and 1 +- i*sqrt(2)*10^-30):
    the approximants circle the cluster, three above the real axis and two
    below, none close enough to it to count as real, so they cannot pair."""
    g = parse_poly("(x^2-2*x+1+1/10^60)*(x-1)*(x^2-2*x+1+2/10^60)", H)
    for precision in (64, 128):
        with pytest.raises(ConvergenceError, match="conjugate pairing of numeric roots failed"):
            roots(g, mode="numeric", precision=precision)


def test_split_zero_divisor_classes_in_numeric_mode():
    """In the split algebra (1, 1), x + i takes the nonzero zero divisor 1 + i
    at the central candidate 1: the companion x^2 - 1 vanishes there, so no
    precision tells its roots apart from the candidate, and the estimate is
    twice the precision.  (x^2 + 5)(x^2 + 2 + i) reduces to B = 4(1 + i) with
    A = 0 on the class of x^2 + 1, and to 2(-1 + i) on that of x^2 + 3: the
    companion is not squarefree, so A = 0 is a degenerate reduction, not a
    sphere, while x^2 + 5 is one."""
    from quatdyn.cli import parse_algebra
    from quatdyn.solver import _resolving_precision

    spec = parse_algebra("quat:1,1@Q")
    g = parse_poly("x+i", spec)
    for precision in (4, 64, 128):
        assert _resolving_precision(companion(g), QQ.scalar(1), precision) == 2 * precision
    sols = roots(g, mode="numeric", precision=64)
    assert [(s.kind, s.klass.trace, s.klass.norm) for s in sols] == [("anomaly", -2, 1), ("anomaly", 2, 1)]
    assert all(s.detail.endswith("about 128 bits would resolve the class") for s in sols)

    g = parse_poly("(x^2+5)*(x^2+2+i)", spec)
    sols = roots(g, mode="numeric")
    assert [(s.kind, s.klass.norm, s.detail) for s in sols] == [
        ("anomaly", 1, "reduction degenerated at numeric precision"),
        ("anomaly", 3, "reduction degenerated at numeric precision"),
        ("sphere", 5, ""),
    ]
    assert [s.kind for s in roots(g)] == ["none", "none", "sphere"]
