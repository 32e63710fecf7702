import random
from fractions import Fraction

import pytest

from quatdyn import FieldSpec, OctSpec, ParseError, Poly, QQ, QuatSpec
from quatdyn.parsing import parse_element, parse_poly, parse_scalar

from helpers import pair_omul, rand_oct, rand_quat

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


def test_power_bound_counts_constants_as_degree_zero_and_zero_as_minus_one():
    with pytest.raises(ParseError) as err:
        parse_poly("0^100000", H)
    assert str(err.value) == (
        "power 100000 of a degree--1, 1-bit polynomial passes degree 256 or 65536 bits "
        "(at position 1)"
    )
    with pytest.raises(ParseError) as err:
        parse_poly("x + 2^65537", H)
    assert "power 65537 of a degree-0, 2-bit polynomial" in str(err.value)
    assert parse_poly("(1/2*i)^3*x^256", H) == Poly(H, [0] * 256 + [-I / 8])
    assert parse_element("2*s5*(1/3)", H5) == H5.element(F5.scalar(0, Fraction(2, 3)))


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
        # 101 alternating '-' and '(': the last '-' is one level too deep
        (("-(" * 51)[:101] + "x" + ")" * 50, 100),
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


def test_constant_errors_name_what_was_expected():
    with pytest.raises(ParseError) as err:
        parse_scalar("x", QQ)
    assert str(err.value) == "expected a scalar, got a degree-1 polynomial"
    with pytest.raises(ParseError) as err:
        parse_scalar("i + 1", F5)
    assert str(err.value) == "expected a scalar, got a non-central element"
    with pytest.raises(ParseError) as err:
        parse_element("x^2 + 1", H)
    assert str(err.value) == "expected a point, got a degree-2 polynomial"
    assert parse_scalar("(1 + s5)^2", F5) == F5.scalar(6, 2)


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


# -- the column evaluation: refusals, written order, central products ----------

BUDGET_ERRORS = [
    ("x^200*x^57", "product of degree above 256 (at position 5)"),
    ("2^32768*2^32768", "product of height above 65536 bits (at position 7)"),
    ("2^32767*2^32768", "product of height above 65536 bits (at position 7)"),
    # the denominator 2^32768 * 3^20700 has 65577 bits
    ("(1/2)^32768 + (1/3)^20700", "sum of height above 65536 bits (at position 12)"),
    ("(1/2)^32768 - (1/3)^20700", "sum of height above 65536 bits (at position 12)"),
    # 4 * 2^65534 = 2^65536: the third sum passes the budget
    (
        "x*2^32767*2^32767 + 2^32767*2^32767*x + x*2^32767*2^32767 + x*2^32767*2^32767",
        "sum of height above 65536 bits (at position 58)",
    ),
    (
        "x + (x+1)^300",
        "power 300 of a degree-1, 1-bit polynomial passes degree 256 or 65536 bits "
        "(at position 9)",
    ),
    (
        "3^41337",
        "power 41337 of a degree-0, 2-bit polynomial passes degree 256 or 65536 bits "
        "(at position 1)",
    ),
    # the message names the base's height, 2 bits, not a bound on it
    (
        "(1*1*1*3)^40000",
        "power 40000 of a degree-0, 2-bit polynomial passes degree 256 or 65536 bits "
        "(at position 9)",
    ),
    # a sum that cancels is zero: degree -1 and 1 bit
    (
        "(x^2 - x^2)^100000",
        "power 100000 of a degree--1, 1-bit polynomial passes degree 256 or 65536 bits "
        "(at position 11)",
    ),
    # a term folds its central factors apart from the others, yet each refusal
    # names the product of the factors written before its '*'
    ("i*2^32768*j*2^32768", "product of height above 65536 bits (at position 11)"),
    ("-2^32768*-i*2^32768", "product of height above 65536 bits (at position 11)"),
    ("x^200*3*i*x^57", "product of degree above 256 (at position 9)"),
]


@pytest.mark.parametrize("source, message", BUDGET_ERRORS)
def test_budget_refusals_keep_message_and_position(source, message):
    with pytest.raises(ParseError) as err:
        parse_poly(source, H)
    assert str(err.value) == message


def test_heights_within_the_budget_are_accepted():
    # 2^65534 has 65535 bits: the product of two 32768-bit factors is allowed
    assert parse_poly("2^32767*2^32767", H) == Poly.constant(H, 2**65534)
    # the height bound of 1*1*1*3 is larger than its height of 2 bits
    assert parse_poly("(1*1*1*3)^30000", H) == Poly.constant(H, 3**30000)
    sum_ = parse_poly("(1/2)^32768 + (1/3)^20600", H)
    assert sum_ == Poly.constant(H, Fraction(1, 2**32768) + Fraction(1, 3**20600))


def test_octonion_products_keep_written_order():
    one = Fraction(1)
    i, j, l = ([one if k == n else 0 * one for k in range(8)] for n in (1, 2, 4))
    left = pair_omul(-one, -one, -one, pair_omul(-one, -one, -one, i, j), l)
    right = pair_omul(-one, -one, -one, i, pair_omul(-one, -one, -one, j, l))
    assert left != right
    for source, expected in (("(i*j)*l", left), ("i*(j*l)", right)):
        got = parse_element(source, O)
        assert tuple(Fraction(v, got.den) for v in got.nums) == expected
    assert parse_element("(i*j)*l", O) != parse_element("i*(j*l)", O)
    # rationals lie in the nucleus: folding the 2 and the 3 out keeps the value
    assert parse_poly("(i*2)*(j*l)*3", O).render() == "(-6*kl)"


def test_central_products_and_powers():
    assert parse_poly("x*i", H) == parse_poly("i*x", H) == Poly(H, [0, I])
    assert parse_poly("x^0", H) == Poly.constant(H, 1)
    assert parse_poly("(3/2*x)^3", H) == Poly(H, [0, 0, 0, Fraction(27, 8)])
    assert parse_element("s5*s5", H5) == H5.element(5)
    assert parse_element("(1 + s5)^2", H5) == H5.element(F5.scalar(6, 2))


def test_a_cancelled_sum_is_zero_of_degree_minus_one():
    assert parse_poly("x^2 - x^2", H) == Poly(H)
    # x^256 times a polynomial of degree 2 would pass the degree bound
    assert parse_poly("(x^2 - x^2)*x^256", H) == Poly(H)
    assert parse_poly("x^256*(i*x - x*i)", H) == Poly(H)
    assert parse_element("(i + j)*(x - x)", H) == H.zero()


def test_printed_polynomials_parse_without_algebra_products(monkeypatch):
    """Sums of number*symbol terms times x^e need no structure-constant product."""
    from quatdyn._kernel import Table

    calls = {"mul": 0, "poly_mul": 0}

    def counted(name, original):
        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return count

    # each table holds its own compiled product: count those of every table
    # these parses can reach (O's field is H's)
    for spec in (H, O, H.field):
        for table in (spec.table, spec.table.norm_form):
            monkeypatch.setattr(table, "mul", counted("mul", table.mul))
    monkeypatch.setattr(Table, "poly_mul", counted("poly_mul", Table.poly_mul))
    printed = (
        "(4 + 4*i + -4*j + -4*k)*x^0 + (-1*i + 1*j + 1*k)*x^1 + (1*i + -1*j + -1*k)*x^2"
    )
    f = parse_poly(printed, H)
    g = parse_poly("(1/2 + 1*i + -3*l + 1*kl)*x^0 + (-1*jl)*x^1 + (1)*x^2", O)
    point = parse_element("(1 + 1*i + -1*j + -1*k)", H)
    assert calls == {"mul": 0, "poly_mul": 0}
    parse_element("i*j", H)
    assert calls == {"mul": 1, "poly_mul": 0}
    # the schoolbook product takes one mul per pair of coefficients
    parse_poly("(x + i)*(x + j)", H)
    assert calls["poly_mul"] == 1
    monkeypatch.undo()
    assert f == Poly(H, [4 + 4 * I - 4 * J - 4 * K, -I + J + K, I - J - K])
    assert g.render() == "(1)*x^2 + (-jl)*x + (1/2 + i - 3*l + kl)"
    assert point == 1 + I - J - K


def test_an_overlong_radical_is_a_parse_error():
    # it raised ValueError from int(), an uncaught traceback in the CLI
    with pytest.raises(ParseError) as err:
        parse_poly("x + s" + "7" * 5000, H)
    assert str(err.value) == "integer of 5000 digits is too long (at position 4)"
