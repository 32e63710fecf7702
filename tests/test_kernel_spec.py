"""The contract of `_kernel.Spec`, shared by field, quaternion and octonion specs.

Each case builds its spec afresh from parameters, so that equality and
hashing are checked on distinct objects, and names a spec that differs in
one parameter, whose elements `coerce` must refuse.  The last tests hold the
doubled algebras to `_kernel.DoubledSpec`: their text round-trips, and a sub
of the wrong kind or a wrong count of parameters or parts is refused.
"""

import random
import re
from fractions import Fraction

import pytest

from quatdyn import (
    FieldMismatchError,
    FieldSpec,
    OctSpec,
    Octonion,
    QuatSpec,
    Quaternion,
    Scalar,
    SpecMismatchError,
)
from quatdyn._kernel import OPERATORS, Element
from quatdyn.cli import parse_algebra

from helpers import rand_nonzero, rand_scalar


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


def _values():
    """Rationals, scalars over Q and Q(s5), and quaternions and octonions over
    both, each coerced one level up too, so that many are equal across types;
    every spec is built twice, as distinct objects."""
    values = [0, 1, -2, Fraction(1, 2), Fraction(-3, 4)]
    for d in (None, 5, None, 5):
        field = FieldSpec(d)
        scalars = [field.scalar(v) for v in (0, 1, -2, Fraction(1, 2))]
        if d is not None:
            scalars += [field.scalar(1, 1), field.scalar(0, Fraction(-2, 3))]
        quat, octo = QuatSpec.standard(field), OctSpec.standard(field)
        quats = [quat.coerce(s) for s in scalars]
        quats += [quat.element(1, 2), quat.i(), quat.element(scalars[-1], 0, 0, 3)]
        octs = [octo.coerce(q) for q in quats] + [octo.element(0, 1), octo.element(quat.j(), quat.k())]
        values += scalars + quats + octs
    return values


def test_equal_elements_hash_equal():
    """x == y implies hash(x) == hash(y), across int, Fraction, Scalar,
    Quaternion and Octonion: sets and dict keys mix them safely."""
    values = _values()
    across = 0
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
                across += type(x) is not type(y)
    assert across >= 300


def test_elements_of_another_field_or_algebra_compare_unequal():
    """== answers False across fields and algebras, in either order, where
    arithmetic raises; a dict lookup, which compares equal hashes, answers too."""
    one, scalar = QuatSpec.standard().one(), FieldSpec(5).scalar(1)
    assert hash(one) == hash(scalar)  # both hash as Fraction(1)
    assert one != scalar and scalar != one
    assert OctSpec.standard().one() != QuatSpec.standard(FieldSpec(5)).one()
    assert scalar not in {one: 1}
    with pytest.raises(FieldMismatchError):
        one + scalar
    with pytest.raises(FieldMismatchError):
        scalar * one


def test_an_operand_of_another_spec_raises_the_one_coerce_message():
    """Every operator refuses an operand of another spec through `Spec.coerce`,
    with its message, whether the operand has the element's own type or
    comes from a level down; an equal spec that is another object is no
    other spec."""
    H, H3 = QuatSpec.standard(), QuatSpec(FieldSpec(), -1, -3)
    for expr in (lambda: H.i() + H3.i(), lambda: H.i() * H3.j(), lambda: OctSpec.standard().one() * H3.i()):
        with pytest.raises(SpecMismatchError, match=r"^quaternion from quat:-1,-3@Q used in quat:-1,-1@Q$"):
            expr()
    with pytest.raises(FieldMismatchError, match=r"^scalar from Q used in Q\(s5\)$"):
        FieldSpec(5).sqrt_gen() + FieldSpec().scalar(1)
    twin = QuatSpec(FieldSpec(), -1, -1)
    assert twin is not H and twin == H
    i, j = H.i(), twin.j()
    assert i + j == H.element(0, 1, 1) and i * j == H.k() and j * i == -H.k()
    assert i - j == H.element(0, 1, -1) and (i + j).spec is H and H.i() == twin.i()


def test_element_classes_hold_every_operator_in_their_own_namespace():
    """Each name of OPERATORS sits in every element class's own namespace,
    where per-class instrumentation wraps it: the one the class defines, else
    the one it inherits."""

    class Probe(Element):
        __slots__ = ()

        def __neg__(self):
            return self

    class SubScalar(Scalar):
        __slots__ = ()

    for cls in (Probe, SubScalar, Scalar, Quaternion, Octonion):
        assert set(OPERATORS) <= set(vars(cls)), cls
        assert cls.__hash__ is Element.__hash__
    assert len(set(OPERATORS)) == 12
    assert vars(Probe)["__neg__"] is not Element.__neg__
    assert vars(Probe)["__mul__"] is Element.__mul__
    # every element class inherits the one inverse rule
    assert all(vars(cls)["inv"] is Element.inv for cls in (SubScalar, Scalar, Quaternion, Octonion))


def test_the_algebra_text_round_trips():
    """`str(spec)`, the "algebra" of every JSON payload, parses back through
    `cli.parse_algebra` to an equal spec with an equal hash: random quaternion
    and octonion algebras over Q, Q(s5) and Q(s-3), whose parameters carry
    signs, fractions and sqrt(d) parts."""
    rng = random.Random(40)
    for d in (None, 5, -3):
        field = FieldSpec(d)
        for _ in range(25):
            alpha, beta, gamma = (rand_nonzero(rand_scalar, rng, field, 7, 4) for _ in range(3))
            quat = QuatSpec(field, alpha, beta)
            for spec in (quat, OctSpec(quat, gamma)):
                parsed = parse_algebra(str(spec))
                assert parsed == spec and hash(parsed) == hash(spec), str(spec)
    text = "oct:-1/2 - s5,-2*s5,7@Q(s5)"
    assert str(parse_algebra(text)) == text


def test_a_sub_of_the_wrong_kind_raises_type_error():
    """A doubled algebra takes the spec one level down only: no field for
    octonions, no quaternion algebra for quaternions, no octonion algebra."""
    H, O = QuatSpec.standard(), OctSpec.standard()
    for build, message in (
        (lambda: OctSpec(FieldSpec(), -1), "OctSpec doubles a spec of quaternions, not FieldSpec(d=None)"),
        (lambda: OctSpec(O, -1), f"OctSpec doubles a spec of quaternions, not {O!r}"),
        (lambda: QuatSpec(H, -1, -1), f"QuatSpec doubles a spec of scalars, not {H!r}"),
    ):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            build()


def test_a_wrong_count_of_parameters_or_parts_raises_type_error():
    """One parameter per doubling, and no more parts than the algebra has over
    `sub`: the shared constructor and `element` build nothing of another size."""
    H, O = QuatSpec.standard(), OctSpec.standard()
    for build, message in (
        (lambda: QuatSpec(FieldSpec(), -1), "QuatSpec takes 2 parameter(s), one per doubling, not 1"),
        (lambda: QuatSpec(FieldSpec(5), -1, -1, -1), "QuatSpec takes 2 parameter(s), one per doubling, not 3"),
        (lambda: OctSpec(H, -1, -1), "OctSpec takes 1 parameter(s), one per doubling, not 2"),
        (lambda: H.element(1, 2, 3, 4, 5), "an element of quat:-1,-1@Q has 4 parts, not 5"),
        (lambda: O.element(1, 2, 3), "an element of oct:-1,-1,-1@Q has 2 parts, not 3"),
    ):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            build()
