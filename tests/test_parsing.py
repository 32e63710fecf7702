import random
from fractions import Fraction

import pytest

from quatdyn import FieldSpec, OctSpec, ParseError, Poly, QQ, QuatSpec
from quatdyn.parsing import parse_element, parse_poly, parse_scalar

from helpers import rand_oct, rand_quat

H = QuatSpec.standard()
F5 = FieldSpec(5)
H5 = QuatSpec.standard(F5)
F_3 = FieldSpec(-3)
H_3 = QuatSpec.standard(F_3)
O = OctSpec.standard()
I, J, K = H.i(), H.j(), H.k()


def test_parse_worked_example_input():
    f = parse_poly("x^2 + (i+1)*x + 1 + i*j", H)
    assert f == Poly(H, [1 + K, 1 + I, 1])


def test_parse_identity():
    assert parse_poly("x", H) == Poly.x(H)


def test_parse_octonion_example():
    f = parse_poly("l*x^2 + (1 - i*l)*x + l - (i*j)*l", O)
    l = O.basis_element("l")
    il = O.basis_element("il")
    kl = O.basis_element("kl")
    assert f == Poly(O, [l - kl, O.one() - il, l])


def test_parse_k_is_ij():
    assert parse_poly("k", H) == parse_poly("i*j", H)


def test_products_keep_written_order():
    assert parse_element("i*j", H) == K
    assert parse_element("j*i", H) == -K


def test_parse_rationals():
    assert parse_element("133/362", H) == H.element(Fraction(133, 362))
    assert parse_element("-1/2", H) == H.element(Fraction(-1, 2))


def test_parse_radical_tokens():
    s = parse_scalar("1/2 + 3*s5", F5)
    assert s == F5.scalar(Fraction(1, 2), 3)
    lam = parse_element("(133/362*s5 - 333/362)*i", H5)
    assert lam == H5.element(0, F5.scalar(Fraction(-333, 362), Fraction(133, 362)))


def test_unary_minus_binds_to_the_atom():
    # per the grammar, -x^2 parses as (-x)^2
    assert parse_poly("-x^2", H) == parse_poly("x^2", H)
    assert parse_poly("-(x^2)", H) == -parse_poly("x^2", H)
    assert parse_poly("(-i)*x^4", H) == Poly(H, [0, 0, 0, 0, -I])


def test_power_zero_is_one():
    assert parse_poly("x^0", H) == Poly.constant(H, 1)
    assert parse_poly("i^0", H) == Poly.constant(H, 1)


def test_whitespace_between_tokens():
    assert parse_poly(" x ^ 2 + ( i + 1 ) * x ", H) == Poly(H, [0, 1 + I, 1])


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_poly("x +", H)
    with pytest.raises(ParseError) as err:
        parse_poly("x + $", H)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("x ^ -1", H)
    with pytest.raises(ParseError):
        parse_poly("(x", H)
    with pytest.raises(ParseError):
        parse_poly("x)", H)
    with pytest.raises(ParseError):
        parse_poly("1/0", H)
    with pytest.raises(ParseError):
        parse_poly("1 / 2", H)  # rationals are single tokens


@pytest.mark.parametrize(
    "source, message",
    [
        ("   \n", "unexpected token '' (at position 4)"),
        ("\t$", "unexpected character '$' (at position 1)"),
        ("x + é", "unexpected character 'é' (at position 4)"),
        ("  3/", "unexpected character '/' (at position 3)"),
        ("x ^ -1", "exponent must be a nonnegative integer (at position 4)"),
        ("2  x", "unexpected trailing input 'x' (at position 3)"),
        ("x​", "unexpected character '\\u200b' (at position 1)"),
    ],
)
def test_parse_error_text_names_the_token_after_whitespace(source, message):
    with pytest.raises(ParseError) as err:
        parse_poly(source, H)
    assert str(err.value) == message


def test_nesting_is_bounded():
    """'(' and unary '-' count together against MAX_NESTING (100); past it
    the parser raises ParseError at the first token too deep, instead of
    recursing into a RecursionError."""
    assert parse_poly("(" * 100 + "x" + ")" * 100, H) == Poly.x(H)
    assert parse_element("-" * 100 + "i", H) == I
    assert parse_scalar("(-" * 50 + "2" + ")" * 50, QQ) == QQ.scalar(2)
    for source, position in (
        ("(" * 250 + "x" + ")" * 250, 100),
        ("-" * 1000 + "x", 100),
        ("x + " + "(-" * 60 + "i" + ")" * 60, 104),
    ):
        with pytest.raises(ParseError) as err:
            parse_poly(source, H)
        assert str(err.value) == f"nesting deeper than 100 levels (at position {position})"
    with pytest.raises(ParseError):
        parse_scalar("(" * 300 + "2" + ")" * 300, QQ)


def test_unknown_and_wrong_algebra_symbols():
    with pytest.raises(ParseError):
        parse_poly("foo + x", H)
    with pytest.raises(ParseError):
        parse_poly("l*x", H)  # octonion basis in a quaternion context
    parse_poly("l*x", O)


def test_wrong_field_radical():
    with pytest.raises(ParseError):
        parse_poly("s5 + x", H)  # rational field has no radical
    with pytest.raises(ParseError):
        parse_poly("s3 + x", H5)  # mismatched d


def test_point_parsing():
    assert parse_element("-j", H) == -J
    assert parse_element("-i-j", H) == -I - J
    with pytest.raises(ParseError):
        parse_element("x + 1", H)


def test_scalar_parsing_rejects_noncentral():
    with pytest.raises(ParseError):
        parse_scalar("i + 1", QQ)


def test_render_parse_round_trip_quaternions():
    rng = random.Random(53)
    for spec in (H, H5):
        for _ in range(150):
            z = rand_quat(rng, spec, span=3, den=3)
            assert parse_element(z.render(), spec) == z


def test_render_parse_round_trip_octonions():
    rng = random.Random(59)
    for _ in range(150):
        z = rand_oct(rng, O, span=3, den=2)
        assert parse_element(z.render(), O) == z


def test_render_parse_round_trip_polynomials():
    rng = random.Random(61)
    for spec in (H, H5, O):
        for _ in range(60):
            draw = rand_oct if spec is O else rand_quat
            coeffs = [draw(rng, spec, span=2, den=2) for _ in range(rng.randint(0, 4))]
            p = Poly(spec, coeffs)
            assert parse_poly(p.render(), spec) == p
            assert parse_poly(p.render(), spec).render() == p.render()


def test_render_parse_round_trip_imaginary_field():
    # sqrt(-3) prints as s-3, which reads back as one radical token
    assert parse_scalar("s-3", F_3) == F_3.sqrt_gen()
    assert parse_scalar("s-3^2", F_3) == F_3.scalar(-3)
    assert parse_poly("x^2+s-3", H_3) == Poly(H_3, [F_3.sqrt_gen(), 0, 1])
    rng = random.Random(67)
    for _ in range(60):
        coeffs = [rand_quat(rng, H_3, span=3, den=3) for _ in range(rng.randint(0, 4))]
        p = Poly(H_3, coeffs)
        assert parse_poly(p.render(), H_3) == p
        assert parse_poly(p.render(), H_3).render() == p.render()
    with pytest.raises(ParseError, match="s-3 does not belong"):
        parse_poly("x+s-3", H5)
