import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatdyn import (
    FieldSpec,
    OctSpec,
    Poly,
    QQ,
    QuatSpec,
    UnsupportedAlgebraError,
    ZeroPolynomialError,
    certify_periodic,
    fixed_points,
    octonion_fixed_check,
    orbit,
)

from quatdyn import _kernel
from quatdyn.cli import parse_algebra
from quatdyn.parsing import parse_element, parse_poly

from helpers import rand_oct, rand_poly, rand_quat, rand_scalar, rand_subfield_pair

H = QuatSpec.standard()
F5 = FieldSpec(5)
H5 = QuatSpec.standard(F5)
O = OctSpec.standard()
I, J, K = H.i(), H.j(), H.k()

F_EXAMPLE = Poly(H, [1 + K, 1 + I, 1])  # x^2 + (i+1)x + 1 + ij


def two_cycle_seed():
    return H5.element(
        F5.scalar(-1),
        F5.scalar(Fraction(-333, 362), Fraction(133, 362)),
        F5.scalar(Fraction(-165, 181), Fraction(-14, 181)),
        F5.scalar(Fraction(-22, 181), Fraction(-26, 181)),
    )


def test_fixed_points_worked_example():
    sols = fixed_points(F_EXAMPLE)
    assert [s.kind for s in sols] == ["point", "point"]
    assert {s.point for s in sols} == {-J, -I - J}
    for s in sols:
        assert F_EXAMPLE(s.point) == s.point


def test_fixed_points_cover_point_outside_coefficient_subfield():
    f = Poly(H, [0, 1 + I, 0, I])  # ix^3 + (1+i)x, coefficients in F(i)
    assert f(J) == J
    sols = fixed_points(f)
    covered = False
    for s in sols:
        if s.kind == "point" and s.point == J:
            covered = True
        if s.kind == "sphere" and J.in_class(s.klass.trace, s.klass.norm):
            covered = True
    assert covered
    kinds = sorted(s.kind for s in sols)
    assert kinds == ["point", "sphere"]  # the point is 0, the sphere is norm 1
    assert any(s.kind == "point" and s.point == H.zero() for s in sols)


def test_fixed_points_whole_class():
    f = Poly(H, [1, 1, 1])  # x^2 + x + 1 fixes the entire class of i
    sols = fixed_points(f)
    assert [s.kind for s in sols] == ["sphere"]
    assert I.in_class(sols[0].klass.trace, sols[0].klass.norm)
    assert f(I) == I and f(J) == J


def test_fixed_points_identity_rejected():
    with pytest.raises(ZeroPolynomialError):
        fixed_points(Poly.x(H))
    with pytest.raises(UnsupportedAlgebraError):
        fixed_points(Poly(O, [0, 0, 1]))


def test_fixed_points_translation_has_none():
    assert fixed_points(Poly.x(H) + I) == []


def test_orbit_eval_vs_compose():
    f = Poly(H, [0, 0, I])
    lam = J + 1
    ev = orbit(f, lam, 2, semantics="eval")
    assert ev.points == (2 * K, -4 * I)
    co = orbit(f, lam, 2, semantics="compose")
    assert co.points[0] == 2 * K
    assert co.points[1] == 4 * I
    assert ev.points[0] == co.points[0]


def test_orbit_constant_at_fixed_point():
    rep = orbit(F_EXAMPLE, -J, 3)
    assert rep.points == (-J, -J, -J)
    assert rep.commutes_with_start == (True, True, True)


def test_orbit_alternating_two_cycle():
    f = Poly(H, [I, 0, 1])  # x^2 + i over the complex subfield
    rep = orbit(f, -I, 4, semantics="eval")
    assert rep.points == (-1 + I, -I, -1 + I, -I)
    assert all(rep.commutes_with_start)


def test_orbit_semantics_validation():
    with pytest.raises(ValueError):
        orbit(F_EXAMPLE, I, 2, semantics="sideways")


def test_certify_two_cycle_refuted():
    lam = two_cycle_seed()
    f = Poly(H5, [H5.element(1, 0, 0, 1), H5.element(1, 1, 0, 0), 1])
    assert f.compose_iterate(2)(lam) == lam
    verdict = certify_periodic(f, lam, 2, n_max=2)
    assert verdict.status == "refuted_at"
    assert verdict.refuted_at == 2
    assert verdict.evidence["r_fixed"] is True
    assert verdict.evidence["failed_t"] == [1]


def test_certify_two_periodic_point_in_subfield():
    f = Poly(H, [I, 0, 1])
    verdict = certify_periodic(f, -I, 2)
    assert verdict.status == "certified_periodic"
    assert verdict.evidence["commutes_with_evals"] == [True]


def test_certify_fixed_point():
    verdict = certify_periodic(F_EXAMPLE, -J, 1)
    assert verdict.status == "fixed_point"
    for r, n_max in ((0, 4), (1, 0)):
        with pytest.raises(ValueError):
            certify_periodic(F_EXAMPLE, -J, r, n_max=n_max)


def test_certify_not_r_fixed():
    verdict = certify_periodic(F_EXAMPLE, I, 2, n_max=2)
    assert verdict.status == "inconclusive"
    assert verdict.evidence["r_fixed"] is False


def test_certify_subfield_closure():
    # with coefficients and the point in one commutative subfield, an r-fixed
    # point is always certified
    rng = random.Random(41)
    for _ in range(50):
        w, sample = rand_subfield_pair(rng, H)
        lam = sample()
        c = sample()
        f_inv = Poly(H, [c, -1])  # x -> c - x is an involution around c/2
        assert f_inv.compose_iterate(2)(lam) == lam
        verdict = certify_periodic(f_inv, lam, 2)
        assert verdict.status == "certified_periodic"
        f_fix = Poly(H, [lam - lam * lam, 0, 1])  # x^2 + (lam - lam^2)
        verdict = certify_periodic(f_fix, lam, 1)
        assert verdict.status == "fixed_point"


def test_certified_points_iterate_exactly():
    # soundness of certification: iterates really do return, well past r
    f = Poly(H, [I, 0, 1])
    lam = -I
    for n in (2, 4, 6):
        assert f.compose_iterate(n)(lam) == lam


def test_compose_eval_orbits_agree_when_flags_true():
    rng = random.Random(43)
    for _ in range(30):
        w, sample = rand_subfield_pair(rng, H)
        f = Poly(H, [sample() for _ in range(3)])
        lam = sample()
        ev = orbit(f, lam, 3, semantics="eval")
        if all(ev.commutes_with_start):
            co = orbit(f, lam, 3, semantics="compose")
            assert co.points == ev.points


def test_certify_degree_cap_is_inconclusive(monkeypatch):
    # the refutation needs the 4th residue of a quadratic, 2 * 4 steps; a
    # budget of 7 stops it after the r-fixed and commutation stages, with the
    # budget in evidence; MAX_STEPS is patched in _kernel, where _bounded reads it
    lam = two_cycle_seed()
    f = Poly(H5, [H5.element(1, 0, 0, 1), H5.element(1, 1, 0, 0), 1])
    monkeypatch.setattr(_kernel, "MAX_STEPS", 7)
    verdict = certify_periodic(f, lam, 2, n_max=2)
    assert verdict.status == "inconclusive"
    assert verdict.evidence["budget"] == "step 4 exceeds the budget: degree 2 times 4 steps is over 7"
    assert verdict.evidence["failed_t"] == [1]
    assert verdict.evidence["refutation_checked"] == []
    monkeypatch.setattr(_kernel, "MAX_STEPS", 8)
    verdict = certify_periodic(f, lam, 2, n_max=2)
    assert (verdict.status, verdict.refuted_at) == ("refuted_at", 2)


def test_octonion_counterexample():
    l, il, kl = (O.basis_element(s) for s in ("l", "il", "kl"))
    j = O.basis_element("j")
    f = Poly(O, [l - kl, O.one() - il, l])
    report = octonion_fixed_check(f, j, n_max=4)
    assert report.fixed is True
    assert report.first_failure == 2
    # f fixes j, but f o f does not: no fixed_point verdict over octonions
    verdict = certify_periodic(f, j, 1)
    assert verdict.status == "refuted_at"
    assert verdict.refuted_at == 2


def test_every_entry_point_refuses_n_max_below_one():
    # f o f moves j: a bound below 1 reported j fixed, or an empty orbit
    l, il, kl = (O.basis_element(s) for s in ("l", "il", "kl"))
    j = O.basis_element("j")
    f = Poly(O, [l - kl, O.one() - il, l])
    for n_max in (0, -3):
        calls = (
            lambda: octonion_fixed_check(f, j, n_max=n_max),
            lambda: orbit(f, j, n_max),
            lambda: orbit(f, j, n_max, semantics="eval"),
            lambda: certify_periodic(f, j, 1, n_max=n_max),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^n_max must be at least 1$"):
                call()


def test_octonion_check_inside_associative_subalgebra():
    # coefficients and the point lift from the quaternion part: no failure
    i = O.basis_element("i")
    f = Poly(O, [1 + i, 0, 1])  # x^2 + 1 + i fixes i
    report = octonion_fixed_check(f, i, n_max=4)
    assert report.fixed is True
    assert report.first_failure is None
    assert report.checked_up_to == 4


def test_octonion_check_identity():
    j = O.basis_element("j")
    report = octonion_fixed_check(Poly.x(O), j, n_max=3)
    assert report.fixed is True and report.first_failure is None


def test_octonion_check_not_fixed():
    j = O.basis_element("j")
    f = Poly(O, [1, 0, 1])
    report = octonion_fixed_check(f, j, n_max=3)
    assert report.fixed is False and report.first_failure == 1


def test_fixed_points_stay_fixed_under_iterated_composition():
    sols = fixed_points(F_EXAMPLE)
    for s in sols:
        for n in range(1, 7):
            assert F_EXAMPLE.compose_iterate(n)(s.point) == s.point
    # a sphere member is just as permanent
    f = Poly(H, [1, 1, 1])
    for n in range(1, 7):
        assert f.compose_iterate(n)(J) == J


def test_fixed_point_class_count_bound():
    rng = random.Random(47)
    from helpers import rand_solvable_poly

    for _ in range(30):
        deg = rng.randint(2, 4)
        g = rand_solvable_poly(rng, H, deg)
        f = g + Poly.x(H)
        sols = fixed_points(f)
        useful = {
            (s.klass.trace, s.klass.norm)
            for s in sols
            if s.kind in ("point", "sphere")
        }
        assert len(useful) <= f.degree


QUOTIENT_SPECS = [
    parse_algebra(text)
    for text in (
        "quat:-1,-1@Q", "quat:-1,-1@Q(s5)", "quat:2,1/3@Q", "quat:2,-3/7@Q(s5)", "oct:-1,-1,-1@Q"
    )
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(QUOTIENT_SPECS),
    st.integers(1, 2),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_composite_values_match_built_composites(spec, degree, central, seed):
    # values read off A[x]/(x^2 - T x + N) equal the built composites' values
    rng = random.Random(seed)
    f = rand_poly(rng, spec, degree, den=2)
    if central:
        lam = spec.coerce(rand_scalar(rng, spec.field))
    else:
        lam = (rand_oct if isinstance(spec, OctSpec) else rand_quat)(rng, spec, den=2)
    values = f.composite_values(lam)
    for n in range(1, 6):
        assert next(values) == f.compose_iterate(n)(lam)


def test_composite_values_of_constants_and_linear_maps():
    lam = 1 + J
    for f in (Poly(H), Poly.constant(H, I), Poly(H, [I, J]), Poly.x(H)):
        values = f.composite_values(lam)
        for n in range(1, 5):
            assert next(values) == f.compose_iterate(n)(lam)


def test_collapsing_composites_are_answered_at_every_n():
    # over the split algebra (1, -1), (i + j)^2 = 0, so every composite of
    # f = (i + j) x^2 + x has degree 2 and fixes lam = i + j; its residues
    # keep their height, so nothing stops short of n_max
    spec = parse_algebra("quat:1,-1@Q")
    f = parse_poly("(i+j)*x^2+x", spec)
    assert [f.compose_iterate(n).degree for n in range(1, 5)] == [2, 2, 2, 2]
    lam = parse_element("i+j", spec)  # lam^2 = 0, so f(lam) = lam
    for n in range(1, 65):
        assert orbit(f, lam, n).points == (lam,) * n
        report = octonion_fixed_check(f, lam, n_max=n)
        assert (report.checked_up_to, report.first_failure) == (n, None)
        assert certify_periodic(f, lam, 2, n_max=n).status == "certified_periodic"
