import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatdyn import FieldSpec, OctSpec, QQ, QuatSpec, SplitAlgebraError

from helpers import rand_oct, reference, values

O = OctSpec.standard()
H = O.quat
O5 = OctSpec.standard(FieldSpec(5))
GENERIC = OctSpec(QuatSpec(QQ, 2, Fraction(1, 3)), -5)

coords = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def octs_over(spec):
    s = coords
    if not spec.field.is_rational:
        s = st.tuples(coords, coords).map(lambda ab: spec.field.scalar(*ab))
    q = spec.quat
    return st.tuples(*([s] * 8)).map(
        lambda t: spec.element(q.element(*t[:4]), q.element(*t[4:]))
    )


octs = octs_over(O)


def b(sym):
    return O.basis_element(sym)


def test_l_squares_to_gamma():
    assert b("l") * b("l") == -1
    two = OctSpec(H, 2)
    l2 = two.basis_element("l")
    assert l2 * l2 == 2


def test_il_times_j():
    assert b("il") * b("j") == -b("kl")  # -(i*j)*l


def test_associator_sign_flip():
    left = (b("i") * b("j")) * b("l")
    right = b("i") * (b("j") * b("l"))
    assert left == b("kl")
    assert right == -b("kl")
    assert left == -right


@given(
    st.sampled_from([O, GENERIC, O5]).flatmap(
        lambda spec: st.tuples(octs_over(spec), octs_over(spec))
    )
)
def test_product_matches_pair_formula(pair):
    x, y = pair
    assert values(x * y) == reference(x.spec).mul(values(x), values(y))


def test_hash_agrees_with_equality():
    H5 = QuatSpec.standard(FieldSpec(5))
    assert len({H.one(), 1}) == 1
    assert len({O.coerce(H.i()), H.i()}) == 1
    assert len({2 * H5.one(), H5.field.scalar(2)}) == 1


def test_conj_norm_inv_examples():
    assert (b("j") + b("l")).norm() == 2
    assert b("l").inv() == -b("l")
    x = b("l") - b("kl")
    assert x.conj() == -x
    assert (O.one() - b("il")) * (O.one() - b("il")) == -2 * b("il")


@given(octs, octs)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(octs, octs)
def test_alternative_and_flexible_laws(x, y):
    assert (x * x) * y == x * (x * y)
    assert (y * x) * x == y * (x * x)
    assert (x * y) * x == x * (y * x)


@given(octs, octs)
def test_conj_is_an_anti_automorphism(x, y):
    assert (x * y).conj() == y.conj() * x.conj()
    assert x.conj().conj() == x


@given(octs)
def test_characteristic_identity(x):
    assert (x * x - x * x.trace() + x.norm()).is_zero


@settings(max_examples=40)
@given(octs)
def test_power_nesting_agrees(x):
    for n in range(2, 7):
        left = x**n  # left-nested by definition
        right = O.one()
        for _ in range(n):
            right = x * right
        assert left == right


def test_inverse_round_trip_and_errors():
    rng = random.Random(11)
    for _ in range(50):
        x = rand_oct(rng, O, span=2, den=2)
        if x.is_zero:
            continue
        assert x * x.inv() == 1
        assert x.inv() * x == 1
    with pytest.raises(ZeroDivisionError):
        O.zero().inv()
    split = OctSpec(QuatSpec(QQ, 1, 1), 1)
    with pytest.raises(SplitAlgebraError):
        (split.one() + split.basis_element("i")).inv()


def test_render():
    assert (b("l") - b("kl")).render() == "l - kl"
    assert (4 * b("i") + b("j")).render() == "4*i + j"
