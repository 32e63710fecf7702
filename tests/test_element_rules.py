"""`Element.inv` and `Element.commutes` against independent routes.

The inverse is the kernel's one rule, conj(x) / N(x) on numerators with N(x)
inverted through its field conjugate; it is checked by the reference algebra
of `helpers` (x * x^-1 = x^-1 * x = 1), over a field norm of either sign and
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

from helpers import rand_oct, rand_quat, rand_scalar, reference, values

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


def _product(x, y):
    """The reference's scalars of x*y; over a field, its scalars' own product."""
    if isinstance(x.spec, FieldSpec):
        return (values(x)[0] * values(y)[0],)
    return reference(x.spec).mul(values(x), values(y))


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
    y, one = x.inv(), values(spec.one())
    assert _product(x, y) == one
    assert _product(y, x) == one


def test_inverse_of_chosen_elements():
    # N(x) = 1 - (1 + s2)^2 + 1/9, whose field norm is negative
    spec = parse_algebra("quat:1,-1@Q(s2)")
    x = parse_element("1+(1+s2)*i+1/3*k", spec)
    n = x.norm()
    assert n.a * n.a - 2 * n.b * n.b < 0
    assert _product(x, x.inv()) == values(spec.one())
    # nonzero elements of norm zero
    for text, element in (("quat:1,-1@Q", "1+i"), ("quat:1,-1@Q(s2)", "s2+s2*i+(1+s2)*j+(1+s2)*k"),
                          ("oct:1,-1,-1@Q", "1+i+l+il")):
        x = parse_element(element, parse_algebra(text))
        assert not x.is_zero and not x.norm()
        with pytest.raises(SplitAlgebraError):
            x.inv()
    # 1 + s2 has field norm -1
    s2 = FieldSpec(2).scalar(1, 1)
    assert s2.inv() == FieldSpec(2).scalar(-1, 1) and _product(s2, s2.inv()) == values(s2.spec.one())
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
