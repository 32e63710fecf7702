"""The contract of `_kernel.Spec`, shared by field, quaternion and octonion specs.

Each case builds its spec afresh from parameters, so that equality and
hashing are checked on distinct objects, and names a spec that differs in
one parameter, whose elements `coerce` must refuse.
"""

from fractions import Fraction

import pytest

from quatdyn import (
    FieldMismatchError,
    FieldSpec,
    OctSpec,
    QuatSpec,
    SpecMismatchError,
)


def _quat(d):
    return QuatSpec(FieldSpec(d), 2, Fraction(-1, 3))


CASES = {
    "Q": (lambda: FieldSpec(), lambda: FieldSpec(5), FieldMismatchError),
    "Q(s5)": (lambda: FieldSpec(5), lambda: FieldSpec(7), FieldMismatchError),
    "quat@Q": (lambda: _quat(None), lambda: QuatSpec(FieldSpec(), 2, 3), SpecMismatchError),
    "quat@Q(s5)": (lambda: _quat(5), lambda: QuatSpec(FieldSpec(5), -1, -1), SpecMismatchError),
    "oct@Q": (lambda: OctSpec(_quat(None), -5), lambda: OctSpec(_quat(None), -1), SpecMismatchError),
    "oct@Q(s5)": (lambda: OctSpec(_quat(5), -5), lambda: OctSpec(_quat(7), -5), SpecMismatchError),
}


@pytest.fixture(params=list(CASES))
def case(request):
    build, other, mismatch = CASES[request.param]
    return build, other(), mismatch


def _construct(spec, value):
    """value through the spec's public constructor."""
    return spec.scalar(value) if isinstance(spec, FieldSpec) else spec.element(value)


def _coerced(spec, value):
    got = spec.coerce(value)
    assert type(got) is spec.ELEMENT
    return got


def test_coerce_rationals_and_scalars(case):
    build, _, _ = case
    spec = build()
    field = spec.field
    for value in (-3, Fraction(2, 7)):
        got = _coerced(spec, value)
        assert got == _construct(spec, value)
        assert got.coords() == (field.scalar(value),) + (field.zero(),) * (len(got.BASIS) - 1)
    s = field.scalar(Fraction(2, 3), 0 if field.is_rational else -1)
    got = _coerced(spec, s)
    assert got.coords()[0] == s and not any(got.coords()[1:])
    assert got == (s if isinstance(spec, FieldSpec) else spec.element(s))
    assert spec.zero().is_zero and spec.zero() == _construct(spec, 0)
    assert spec.one() == _construct(spec, 1)


def test_coerce_lifts_a_quaternion_into_its_octonions():
    for d in (None, 5):
        O = OctSpec(_quat(d), -5)
        q = O.quat.element(1, Fraction(1, 2), -3, 4) * (O.field.sqrt_gen() if d else 1)
        got = _coerced(O, q)
        assert got == O.element(q)
        assert got.q == q and got.r.is_zero
        assert got.coords() == q.coords() + (O.field.zero(),) * 4


def test_coerce_refuses_elements_of_another_spec(case):
    build, other, mismatch = case
    spec = build()
    assert spec != other
    with pytest.raises(mismatch):
        spec.coerce(other.one())
    if not isinstance(spec, FieldSpec):  # a scalar of another field, one level down
        with pytest.raises(FieldMismatchError):
            spec.coerce(FieldSpec(3).one())


def test_coerce_refuses_foreign_types(case):
    spec = case[0]()
    for value in (0.5, "1", None):
        with pytest.raises(TypeError):
            spec.coerce(value)


def test_basis_elements(case):
    spec = case[0]()
    basis = spec.ELEMENT.BASIS
    assert spec.basis_element("") == spec.one()
    for idx, sym in enumerate(basis):
        coords = spec.basis_element(sym).coords()
        assert len(coords) == len(basis)
        assert [c == 1 for c in coords] == [k == idx for k in range(len(basis))]
        assert all(not c for k, c in enumerate(coords) if k != idx)
    for sym in ("m", "lk", "x", "l" if len(basis) == 4 else "il2"):
        with pytest.raises(KeyError):
            spec.basis_element(sym)


def test_equal_parameters_give_equal_specs(case):
    build, other, _ = case
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert a.one() == b.one()
    assert len({a, b, other}) == 2


def test_specs_are_immutable(case):
    spec = case[0]()
    for name in ("table", "field", "anything"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)
