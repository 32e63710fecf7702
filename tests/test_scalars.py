import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quatdyn import FieldSpec, NoRealEmbeddingError, QQ, Scalar
from quatdyn.errors import FieldMismatchError
from quatdyn.parsing import parse_scalar
from quatdyn.scalars import nearest

from helpers import sqrt_bracket

F5 = FieldSpec(5)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
rational_scalars = fractions.map(lambda f: QQ.scalar(f))
quad_scalars = st.tuples(fractions, fractions).map(lambda ab: F5.scalar(*ab))
any_scalars = st.one_of(rational_scalars, quad_scalars)


def test_field_spec_validation():
    FieldSpec(5)
    FieldSpec(-1)
    FieldSpec(-6)
    for bad in (0, 1, 4, 12, -4):
        with pytest.raises(ValueError):
            FieldSpec(bad)


def test_field_spec_text():
    assert str(QQ) == "Q"
    assert str(F5) == "Q(s5)"
    assert QQ.has_real_embedding and F5.has_real_embedding
    assert not FieldSpec(-1).has_real_embedding


def test_addition_coordinatewise():
    assert F5.scalar(Fraction(1, 2)) + F5.scalar(0, Fraction(1, 2)) == F5.scalar(
        Fraction(1, 2), Fraction(1, 2)
    )


def test_radical_squares_to_d():
    assert F5.sqrt_gen() * F5.sqrt_gen() == 5


def test_inverse_of_one_plus_sqrt5():
    s = F5.scalar(1, 1)
    inv = s.inv()
    assert s * inv == 1
    assert inv == F5.scalar(Fraction(-1, 4), Fraction(1, 4))


def test_rational_scalars_reject_radical_part():
    with pytest.raises(ValueError):
        QQ.scalar(1, 1)


def test_mixed_field_error():
    with pytest.raises(FieldMismatchError):
        QQ.scalar(1) + F5.scalar(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F5.scalar(0).inv()
    with pytest.raises(ZeroDivisionError):
        QQ.scalar(3) / QQ.scalar(0)


def test_to_real_rational():
    assert QQ.scalar(Fraction(1, 2)).to_real(10) == Fraction(1, 2)


def test_to_real_sqrt5_against_newton_bracket():
    lo, hi = sqrt_bracket(5, 60)
    approx = F5.sqrt_gen().to_real(50)
    assert lo - Fraction(1, 2**50) <= approx <= hi + Fraction(1, 2**50)
    assert float(F5.scalar(1, 1)) == pytest.approx(1 + 5**0.5, rel=1e-15)


def test_nearest_rounds_ties_to_even_and_brackets_radicals():
    """`nearest`, the one rounding rule of to_real and of the numeric solver."""
    # (1, 3, 5, -1, -3)/4 at one bit: 0.5, 1.5, 2.5, -0.5, -1.5 units
    assert [nearest(None, (v,), 4, 1) for v in (1, 3, 5, -1, -3)] == [0, 2, 2, 0, -2]
    assert nearest(None, (-3,), -4, 1) == 2  # a negative denominator
    rng = random.Random(11)
    for _ in range(300):
        a, den, bits = rng.randint(-10**6, 10**6), rng.randint(-999, 999) or 1, rng.randint(1, 40)
        assert nearest(None, (a,), den, bits) == round(Fraction(a << bits, den))
    for d in (2, 3, 5):
        field = FieldSpec(d)
        for _ in range(100):
            a, b, den = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), rng.randint(-999, 999) or 1
            bits = rng.randint(1, 40)
            k = nearest(d, (a, b), den, bits)
            x = field.scalar(Fraction(a, den), Fraction(b, den))
            assert Fraction(2 * k - 1, 2 << bits) < x < Fraction(2 * k + 1, 2 << bits)
            assert x.to_real(bits) == Fraction(k, 1 << bits)


def test_to_real_without_embedding():
    with pytest.raises(NoRealEmbeddingError):
        FieldSpec(-1).scalar(1).to_real(10)
    with pytest.raises(NoRealEmbeddingError):
        FieldSpec(-3).scalar(1, 1) < 0


def test_exact_order():
    assert F5.sqrt_gen() > 2
    assert F5.sqrt_gen() < Fraction(9, 4)
    assert F5.scalar(3, -1) > 0  # 3 - sqrt5 > 0
    assert F5.scalar(2, -1) < 0  # 2 - sqrt5 < 0
    assert F5.sqrt_gen() <= F5.sqrt_gen() <= Fraction(9, 4)
    assert F5.sqrt_gen() >= 2 and not F5.scalar(2, -1) >= 0
    vals = [F5.sqrt_gen(), F5.scalar(0), F5.scalar(2), F5.scalar(-1, 1)]
    ordered = sorted(vals)
    assert ordered == [F5.scalar(0), F5.scalar(-1, 1), F5.scalar(2), F5.sqrt_gen()]


@given(any_scalars, any_scalars, any_scalars)
def test_field_axioms(x, y, z):
    if not (x.field == y.field == z.field):
        return
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(any_scalars)
def test_inverses(x):
    if x:
        assert x * x.inv() == 1


@given(any_scalars)
def test_render_parse_round_trip(x):
    assert parse_scalar(x.render(), x.field) == x


@given(quad_scalars, quad_scalars)
def test_to_real_is_multiplicative_within_precision(x, y):
    bits = 48
    eps = Fraction(1, 2**bits)
    prod = (x * y).to_real(bits)
    approx = x.to_real(bits) * y.to_real(bits)
    mag = lambda s: abs(s.to_real(bits)) + 1
    assert abs(prod - approx) <= eps * (mag(x) + mag(y) + 2)


def test_render_forms():
    assert QQ.scalar(Fraction(-3, 2)).render() == "-3/2"
    assert F5.scalar(0, 1).render() == "s5"
    assert F5.scalar(0, -1).render() == "-s5"
    assert F5.scalar(0, Fraction(2, 3)).render() == "2/3*s5"
    assert F5.scalar(Fraction(1, 2), Fraction(-1, 3)).render() == "1/2 - 1/3*s5"
    assert F5.scalar(Fraction(-333, 362), Fraction(133, 362)).render() == (
        "-333/362 + 133/362*s5"
    )
