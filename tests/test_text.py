"""Text of exact values against the Fraction-based reference printer.

`render()` prints from the kernel's integer numerators; `helpers` keeps the
printer that built a `Scalar` per coordinate and two `Fraction`s per scalar.
Both must agree byte for byte, past CPython's int-to-text limit too.
"""

import random
import sys
from fractions import Fraction

from quatdyn import FieldSpec, OctSpec, Poly, QQ, QuatSpec

from helpers import reference_render

FIELDS = (QQ, FieldSpec(5), FieldSpec(-3))
# zero, units, small and larger magnitudes of both signs
PARTS = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 12), Fraction(-35, 6))


def _scalar(rng, field, parts=PARTS):
    """A zero, pure-rational, pure-radical or mixed scalar of field."""
    a, b = rng.choice(parts), rng.choice(parts)
    if field.is_rational:
        return field.scalar(a)
    kind = rng.randrange(4)
    return field.scalar(a if kind != 1 else 0, b if kind != 0 else 0)


def _quat(rng, spec, parts=PARTS):
    return spec.element(*(_scalar(rng, spec.field, parts) for _ in range(4)))


def _oct(rng, spec, parts=PARTS):
    return spec.element(_quat(rng, spec.quat, parts), _quat(rng, spec.quat, parts))


def _samples(rng, parts=PARTS, count=40):
    """(spec, draw) pairs over every field: scalars, quaternions, octonions."""
    for field in FIELDS:
        H = QuatSpec.standard(field)
        for spec, draw in (
            (field, _scalar),
            (H, _quat),
            (QuatSpec(field, 2, Fraction(-3, 7)), _quat),
            (OctSpec.standard(field), _oct),
        ):
            for _ in range(count):
                yield spec, draw(rng, spec, parts)


def test_elements_print_as_the_reference():
    rng = random.Random(71)
    for spec, x in _samples(rng):
        assert x.render() == reference_render(x), (spec, x.nums, x.den)
        assert spec.zero().render() == reference_render(spec.zero()) == "0"


def test_polys_print_as_the_reference():
    rng = random.Random(73)
    for field in FIELDS:
        for spec, draw in (
            (field, _scalar),
            (QuatSpec.standard(field), _quat),
            (OctSpec.standard(field), _oct),
        ):
            for _ in range(25):
                coeffs = [draw(rng, spec) for _ in range(rng.randint(0, 5))]
                p = Poly(spec, coeffs)
                q = Poly.from_cols(spec, p.cols, p.den)
                text = q.render()
                assert q._coeffs is None  # printing built no element
                assert text == reference_render(p), (spec, coeffs)
            assert Poly(spec).render() == reference_render(Poly(spec)) == "(0)"


def test_text_past_the_int_text_limit():
    big_num, big_den = 7**6000 + 1, 3**9500  # 5072 and 4533 digits, coprime
    parts = (0, 1, -1, Fraction(big_num, big_den), Fraction(-big_den, big_num), big_num)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rng = random.Random(79)
        for spec, x in _samples(rng, parts, count=6):
            text = x.render()
            assert sys.get_int_max_str_digits() == 4300
            assert text == reference_render(x), spec
        spec = QuatSpec.standard(FieldSpec(5))
        p = Poly(spec, [_quat(rng, spec, parts) for _ in range(3)] + [1])
        q = Poly.from_cols(spec, p.cols, p.den)
        assert q.render() == reference_render(p)
        assert q._coeffs is None
        assert sys.get_int_max_str_digits() == 4300
        assert max(map(len, q.render().replace("/", " ").split())) > 4300
    finally:
        sys.set_int_max_str_digits(limit)
