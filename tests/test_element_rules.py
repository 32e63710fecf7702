"""`Element.inv` and `Element.commutes` against independent routes.

The inverse is the kernel's one rule, conj(x) / N(x) on numerators with N(x)
inverted through its field conjugate; it is checked by the multipliers of
`helpers` (x * x^-1 = x^-1 * x = 1), over a field norm of either sign and
over split algebras, where a nonzero element of norm zero has no inverse, and
for the scalars of four ground fields, which take the same rule.
`commutes` compares two products' numerators and must agree with the
definition (x*y - y*x).is_zero, which still decides for an operand of a type
the element does not lift.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quatdyn import FieldSpec, OctSpec, Poly, SplitAlgebraError
from quatdyn.cli import parse_algebra
from quatdyn.parsing import parse_element

from helpers import pair_omul, rand_oct, rand_quat, rand_scalar, table_qmul

# a division algebra over Q, one over Q(s2) whose norms have field norms of
# either sign, the octonions, and split algebras, whose random elements of
# norm zero hit SplitAlgebraError
ALGEBRAS = [
    parse_algebra(text)
    for text in ("quat:-1,-1@Q", "quat:1,-1@Q(s2)", "oct:-1,-1,-1@Q", "quat:1,-1@Q", "oct:1,-1,-1@Q")
]
# the ground fields, algebras of their own whose scalars invert by the same
# rule: over Q(s2) field norms take either sign, Q(s-3) has no real embedding
FIELDS = [FieldSpec(d) for d in (None, 5, 2, -3)]


def _draw(rng, spec):
    if isinstance(spec, FieldSpec):
        return rand_scalar(rng, spec, span=2, den=3)
    return (rand_oct if isinstance(spec, OctSpec) else rand_quat)(rng, spec, span=2, den=3)


def _oracle(spec):
    """The product of coordinate tuples by `helpers`, independent of the kernel;
    over a field, (a + b*s)(c + e*s) = a*c + d*b*e + (a*e + b*c)*s on Fractions."""
    if isinstance(spec, FieldSpec):
        def mul(x, y):
            (a, b), (c, e) = ((v.a, v.b) for v in (*x, *y))
            return (spec.scalar(a * c + (spec.d or 0) * b * e, a * e + b * c),)
        return mul
    if isinstance(spec, OctSpec):
        q = spec.quat
        return lambda x, y: pair_omul(q.alpha, q.beta, spec.gamma, x, y)
    return lambda x, y: table_qmul(spec.alpha, spec.beta, x, y)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALGEBRAS + FIELDS), st.integers(0, 2**32))
def test_inverse_is_two_sided_by_the_oracle_multipliers(spec, seed):
    x = _draw(random.Random(seed), spec)
    if x.is_zero:
        return
    if not x.norm():
        with pytest.raises(SplitAlgebraError):
            x.inv()
        return
    mul, one = _oracle(spec), (1,) + (0,) * (len(x.BASIS) - 1)
    y = x.inv()
    assert mul(x.coords(), y.coords()) == one
    assert mul(y.coords(), x.coords()) == one


def test_inverse_of_chosen_elements():
    # N(x) = 1 - (1 + s2)^2 + 1/9, whose field norm is negative
    spec = parse_algebra("quat:1,-1@Q(s2)")
    x = parse_element("1+(1+s2)*i+1/3*k", spec)
    n = x.norm()
    assert n.a * n.a - 2 * n.b * n.b < 0
    assert _oracle(spec)(x.coords(), x.inv().coords()) == (1, 0, 0, 0)
    # nonzero elements of norm zero
    for text, element in (("quat:1,-1@Q", "1+i"), ("quat:1,-1@Q(s2)", "s2+s2*i+(1+s2)*j+(1+s2)*k"),
                          ("oct:1,-1,-1@Q", "1+i+l+il")):
        x = parse_element(element, parse_algebra(text))
        assert not x.is_zero and not x.norm()
        with pytest.raises(SplitAlgebraError):
            x.inv()
    # 1 + s2 has field norm -1
    s2 = FieldSpec(2).scalar(1, 1)
    assert s2.inv() == FieldSpec(2).scalar(-1, 1) and _oracle(s2.spec)(s2.coords(), s2.inv().coords()) == (1,)
    for spec in ALGEBRAS + FIELDS:
        noun = spec.ELEMENT.__name__.lower()
        with pytest.raises(ZeroDivisionError, match=f"^inverse of the zero {noun}$"):
            spec.zero().inv()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ALGEBRAS), st.integers(0, 2**32), st.sampled_from(["element", "power", "scalar", "rational"])
)
def test_commutes_agrees_with_the_commutator(spec, seed, kind):
    rng = random.Random(seed)
    x = _draw(rng, spec)
    y = {
        "element": lambda: _draw(rng, spec),
        "power": lambda: x * x * 3 - x + 2,  # commutes with x
        "scalar": lambda: rand_scalar(rng, spec.field),
        "rational": lambda: rng.randint(-3, 3),
    }[kind]()
    assert x.commutes(y) == (x * y - y * x).is_zero
    if kind != "element":
        assert x.commutes(y)


def test_commutes_with_an_operand_it_does_not_lift_goes_through_the_product():
    H, O = parse_algebra("quat:-1,-1@Q"), parse_algebra("oct:-1,-1,-1@Q")
    i = H.i()
    assert i.commutes(O.coerce(i)) and not i.commutes(O.basis_element("l"))
    assert i.commutes(Poly(H, [i, 1])) and not i.commutes(Poly(H, [H.j()]))
