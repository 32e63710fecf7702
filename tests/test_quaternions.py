import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quatdyn import FieldSpec, OctSpec, Poly, QQ, QuatSpec, SplitAlgebraError
from quatdyn.errors import SpecMismatchError

from helpers import rand_quat, table_qmul

H = QuatSpec.standard()
H5 = QuatSpec.standard(FieldSpec(5))
SPLIT = QuatSpec(QQ, 1, 1)
GENERIC = QuatSpec(QQ, 2, 3)
THIRD = QuatSpec(QQ, 2, Fraction(1, 3))

coords = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def scalars(field):
    if field.is_rational:
        return coords
    return st.tuples(coords, coords).map(lambda ab: field.scalar(*ab))


def quats(spec=H):
    s = scalars(spec.field)
    return st.tuples(s, s, s, s).map(lambda t: spec.element(*t))


def quat_pairs(*specs):
    return st.sampled_from(specs).flatmap(lambda spec: st.tuples(quats(spec), quats(spec)))


def test_basis_products():
    i, j, k = H.i(), H.j(), H.k()
    assert i * j == k
    assert j * i == -k
    assert i * i == -1
    assert (H.one() + j) * (H.one() + j) == 2 * j
    assert (i * j) * (i * j) == -1


@given(quat_pairs(H, H5))
def test_product_matches_basis_table(pair):
    x, y = pair
    expected = table_qmul(x.spec.alpha, x.spec.beta, x.coords(), y.coords())
    assert (x * y).coords() == expected


@given(quat_pairs(GENERIC, THIRD))
def test_product_matches_basis_table_generic_constants(pair):
    x, y = pair
    expected = table_qmul(x.spec.alpha, x.spec.beta, x.coords(), y.coords())
    assert (x * y).coords() == expected


def test_conj_examples():
    i, j = H.i(), H.j()
    assert (H.one() + i).conj() == H.one() - i
    assert (i * j).conj() == -(i * j)
    assert (i * j).conj() == j.conj() * i.conj()
    assert H.element(5).conj() == 5


@given(quats(), quats())
def test_conj_is_an_anti_automorphism(x, y):
    assert (x * y).conj() == y.conj() * x.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x


def test_trace_norm_examples():
    i = H.i()
    assert i.trace() == 0 and i.norm() == 1
    z = H.element(1, 2, 3, 0)
    assert z.trace() == 2
    assert z.norm() == 14


@given(quats())
def test_norm_matches_closed_form(z):
    a, b, c, e = z.coords()
    al, be = QQ.scalar(-1), QQ.scalar(-1)
    assert z.norm() == a * a - al * b * b - be * c * c + al * be * e * e


@given(quats(), quats())
def test_norm_is_multiplicative(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@given(quats())
def test_characteristic_identity(z):
    assert (z * z - z * z.trace() + z.norm()).is_zero


@given(quats(), quats(), quats())
def test_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


def test_inverse_examples():
    i, j = H.i(), H.j()
    assert j.inv() == -j
    assert (H.one() + i).inv() == H.element(Fraction(1, 2), Fraction(-1, 2))
    z = H.element(1, 2, 3, 4)
    assert z * z.inv() == 1
    assert z.inv() * z == 1


def test_inverse_errors():
    with pytest.raises(ZeroDivisionError):
        H.zero().inv()
    with pytest.raises(SplitAlgebraError):
        (SPLIT.one() + SPLIT.i()).inv()  # (1+i)(1-i) = 1 - i*i = 0 when alpha = 1
    # powers take nonnegative integer exponents; use inv()
    for x, what in ((H.i(), "quaternion"), (OctSpec.standard().basis_element("l"), "octonion")):
        for n in (-1, 1.5):
            with pytest.raises(ValueError, match=f"^{what} powers take a nonnegative integer exponent$"):
                x**n
        assert x**0 == x.spec.one() and x**1 == x


def test_commutes():
    i, j = H.i(), H.j()
    assert i.commutes(3 + 2 * i)
    assert not i.commutes(j)
    f = Poly(H, [i, 0, 1])  # x^2 + i
    lam = -i
    assert lam.commutes(f(lam))


def test_class_membership():
    i, j = H.i(), H.j()
    assert (-j).in_class(QQ.scalar(0), QQ.scalar(1))
    assert (-i - j).in_class(QQ.scalar(0), QQ.scalar(2))
    assert not H.one().in_class(QQ.scalar(0), QQ.scalar(1))
    assert H.element(3).in_class(QQ.scalar(6), QQ.scalar(9))


def test_norm_anisotropy_over_formally_real_fields():
    rng = random.Random(7)
    for spec in (H, H5):
        for _ in range(300):
            z = rand_quat(rng, spec, span=3, den=2)
            if not z.is_zero:
                assert z.norm() != 0


def test_spec_mismatch():
    with pytest.raises(SpecMismatchError):
        H.i() + H5.i()


def test_render():
    assert (-H.j()).render() == "-j"
    assert (-H.i() - H.j()).render() == "-i - j"
    assert H.element(1, 1, 0, 0).render() == "1 + i"
    assert H.element(0, 0, 0, Fraction(3, 2)).render() == "3/2*k"
    assert H.zero().render() == "0"
