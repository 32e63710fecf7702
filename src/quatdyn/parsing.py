"""Recursive-descent parser for polynomial and point expressions.

Grammar (ASCII whitespace insignificant between tokens: space, tab, LF, VT, FF, CR):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | radical | basis | 'x' | '(' expr ')' | '-' atom

Rationals are `p/q` or integers of ASCII digits with no internal spaces,
within CPython's int-from-text limit (4300 digits by default).  `s<d>`
(`s-3` for d = -3) is sqrt(d) of the field.  Basis symbols are i, j, k, and
l, il, jl, kl over octonions; k is i*j.  Every value, constants too, is
sparse: {(power, coordinate): numerator} over one denominator, content 1,
so a sum costs its nonzero terms.  x is central and rationals lie in the
nucleus, so a term folds its central factors (rationals, x, parenthesized
values c*x^e, their powers and the signs of unary minus) into one c*x^e, c
rational, and multiplies only the others (basis symbols, radicals, other
parenthesized values and their powers) in written order; it builds its
terms once, at the end, by scaling and shifting that product.  A
ground-field constant times a basis unit moves its terms to the unit's
coordinates.  Only the others' products and powers convert to coordinate
columns: of constants for `Table.mul`, of other values for
`Table.poly_mul`, and powers for `Poly.__pow__`.  Refused, with heights
measured where their bounds pass: a power or product whose degree or height
(bits times the exponent, or the operands' bits added) would pass
MAX_INPUT_DEGREE or HEIGHT_BUDGET bits, before it is computed; a sum whose height passes HEIGHT_BUDGET; '(' and
unary '-' nested beyond MAX_NESTING.  Each refusal names the product of the
factors written so far, so folding changes no message or position.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from ._kernel import HEIGHT_BUDGET, Element, Spec, column_height
from .errors import ParseError
from .polynomials import Poly
from .quaternions import QuatSpec
from .scalars import FieldSpec, Scalar

# {(power, coordinate): numerator}, denominator, a bound of the height, degree
Value = tuple[dict[tuple[int, int], int], int, int, int]
# a Value, or an int k for the unit of basis coordinate k (0 for 1)
Factor = Value | int

_TOKEN = r"[-+*^()]|[0-9]+(?:/[0-9]+)?|s-[0-9]+|[a-z]+[0-9]*"
_TOKEN_RE = re.compile(_TOKEN)
_SPACES = " \t\n\r\f\v"  # ASCII whitespace only
_RADICAL_RE = re.compile(r"s(-?[0-9]+)")

# The largest degree a parsed polynomial may have: the companion of a dense
# degree-256 quaternion polynomial takes 0.08 s, and of degree 1024 5.2 s.
MAX_INPUT_DEGREE = 256

# The deepest nesting of '(' and unary '-' together: at three frames a '(' (expr,
# term, atom), well below CPython's recursion limit of 1000.
MAX_NESTING = 100


def _monomial(terms: dict) -> tuple[int, int] | None:
    """(e, c) when terms is the integer c times x^e, else None."""
    if len(terms) == 1:
        ((e, k), c), = terms.items()
        return None if k else (e, c)


def _reduced(terms: dict, den: int) -> tuple[dict, int]:
    """terms/den divided by its content."""
    g = 1 if den == 1 else gcd(den, *terms.values())
    return ({key: v // g for key, v in terms.items()}, den // g) if g != 1 else (terms, den)


def _height(terms: dict, den: int) -> int:
    """Largest bit length among den and the numerators: their `column_height`."""
    return column_height((terms.values(),), den)


def _size(c: int, den: int, e: int, value: Factor) -> tuple[int, int]:
    """Degree and a height bound of the factor c/den * x^e * value, where c is
    1 or -1, den 1 and e 0 unless value is 0 (the unit 1)."""
    if not value:  # (a | b).bit_length() is max(a, b).bit_length() for a, b >= 0
        return (e if c else -1), (abs(c) | den).bit_length()
    return (0, 1) if value.__class__ is int else (value[3], value[2])


def _scaled(c: int, den: int, e: int, value: Factor) -> Value:
    """c/den * x^e * value, c and den coprime."""
    if value.__class__ is int:
        return ({(e, value): c}, den, (abs(c) | den).bit_length(), e) if c else ({}, 1, 1, -1)
    if c == den == 1 and not e:
        return value
    terms, vden, bits, degree = value
    if not (c and terms):
        return {}, 1, 1, -1
    terms, vden = _reduced({(p + e, k): v * c for (p, k), v in terms.items()}, den * vden)
    return terms, vden, bits + (abs(c) | den).bit_length(), degree + e


def _degree(terms: dict) -> int:
    return max(terms)[0] if terms else -1


def _columns(terms: dict, degree: int, dim: int) -> list[list[int]]:
    cols = [[0] * (degree + 1) for _ in range(dim)]
    for (p, k), v in terms.items():
        cols[k][p] = v
    return cols


def _terms(cols) -> dict:
    return {(p, k): v for k, col in enumerate(cols) for p, v in enumerate(col) if v}


class _Parser:
    """Tokens are texts, ending in "".  No dict of a value is shared, so a sum
    adds up in the dict of its first term."""

    def __init__(self, source: str, spec: Spec) -> None:
        self.source, self.spec, self.dim = source, spec, spec.table.dim
        self.basis, self.width = spec.ELEMENT.BASIS, spec.table.width
        self.tokens = _TOKEN_RE.findall(source) + [""]
        # tokens hold no whitespace: a character is in no token unless both cover the source
        if len("".join(self.tokens)) + sum(map(source.count, _SPACES)) != len(source):
            pos = re.match(rf"(?:{_TOKEN}|[{_SPACES}])*", source).end()
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        self.index = self.depth = 0  # depth: open '(' and unary '-' around the atom
        self.value = self.expr()
        if text := self.tokens[self.index]:
            raise self.error(f"unexpected trailing input {text!r}", self.index)

    def error(self, message: str, index: int) -> ParseError:
        """ParseError at the start of token index."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.source)] + [len(self.source)]
        return ParseError(message, starts[index])

    def integer(self, text: str, index: int) -> int:
        try:
            return int(text)
        except ValueError:  # longer than the int-from-text limit
            raise self.error(f"integer of {len(text)} digits is too long", index) from None

    def mul(self, a: Factor, b: Factor) -> Value:
        """a*b in written order.  A ground-field constant a times a basis unit
        b (no radical) is central: its terms move to b's coordinates, no product."""
        a = _scaled(1, 1, 0, a)
        if b.__class__ is int and not b % self.width and not a[3] and max(a[0])[1] < self.width:
            terms, den, bits, _ = a
            return {(0, k + b): v for (_, k), v in terms.items()}, den, bits, 0
        b = _scaled(1, 1, 0, b)
        (F, fd, _, fdeg), (G, gd, _, gdeg) = a, b
        if not (F and G):
            return b if F else a
        table = self.spec.table
        F, G = _columns(F, fdeg, self.dim), _columns(G, gdeg, self.dim)
        if fdeg == gdeg == 0:
            cols = [[v] for v in table.mul([col[0] for col in F], [col[0] for col in G])]
        else:
            cols = table.poly_mul(F, G)
        terms, den = _reduced(_terms(cols), fd * gd * table.den)
        return terms, den, _height(terms, den), _degree(terms)

    def power(self, value: Factor, t: int) -> Value:
        """value**t by `Poly.__pow__`."""
        terms, den, _, degree = _scaled(1, 1, 0, value)
        out = Poly.from_cols(self.spec, _columns(terms, degree, self.dim), den) ** t
        terms = _terms(out.cols)
        return terms, out.den, _height(terms, out.den), out.degree

    # expr := term (('+'|'-') term)*
    def expr(self) -> Value:
        value = self.term()
        if self.tokens[self.index] not in ("+", "-"):
            return value
        terms, den, bits, _ = value
        while (op := self.tokens[where := self.index]) in ("+", "-"):
            self.index += 1
            rhs, rhs_den, rhs_bits, _ = self.term()
            if den == rhs_den == 1:  # integer terms: no common denominator to take
                bits, scale = max(bits, rhs_bits) + 1, 1 if op == "+" else -1
            else:
                bits += rhs_bits + 1
                if (lcd := lcm(den, rhs_den)) != den:
                    terms, den = {key: v * (lcd // den) for key, v in terms.items()}, lcd
                scale = lcd // rhs_den if op == "+" else -lcd // rhs_den
            get = terms.get
            for key, v in rhs.items():
                terms[key] = get(key, 0) + v * scale
            if bits > HEIGHT_BUDGET and (bits := _height(*_reduced(terms, den))) > HEIGHT_BUDGET:
                raise self.error(f"sum of height above {HEIGHT_BUDGET} bits", where)
        terms, den = _reduced({key: v for key, v in terms.items() if v}, den)
        return terms, den, bits, _degree(terms)

    # term := factor ('*' factor)*, factor := atom ('^' uint)?
    def term(self) -> Value:
        """The product of the factors, each c/d * x^f * v: the central parts
        fold into num/den * x^e, and v multiplies into value in written order.
        A product or power is refused before it is formed, where its degree or
        height would pass a bound: bits bounds the height of num/den."""
        num, den, e, value, bits, star = 1, 1, 0, 0, 1, 0  # star: the '*' before the factor
        while True:
            c, d, f, rhs = self.atom()
            rhs_deg, rhs_bits = _size(c, d, f, rhs)
            if self.tokens[where := self.index] == "^":
                text = self.tokens[index := self.index + 1]
                self.index += 1 + bool(text)
                if not (text.isascii() and text.isdigit()):
                    raise self.error("exponent must be a nonnegative integer", index)
                t = self.integer(text, index)
                if rhs_deg * t > MAX_INPUT_DEGREE or rhs_bits * t > HEIGHT_BUDGET:
                    rhs_bits = _height(*_scaled(c, d, f, rhs)[:2])  # the bound passes: measure
                if rhs_deg * t > MAX_INPUT_DEGREE or rhs_bits * t > HEIGHT_BUDGET:
                    raise self.error(f"power {t} of a degree-{rhs_deg}, {rhs_bits}-bit polynomial"
                                     f" passes degree {MAX_INPUT_DEGREE} or {HEIGHT_BUDGET} bits", where)
                c, d, f, rhs = c**t, d**t, f * t, rhs and self.power(rhs, t)
                rhs_deg, rhs_bits = _size(c, d, f, rhs)
            if star:  # the product so far times this factor
                deg, bound = (e, bits) if value.__class__ is int else (e + value[3], bits + value[2])
                if not num or deg < e:  # zero
                    deg = -1
                if deg + rhs_deg > MAX_INPUT_DEGREE:
                    raise self.error(f"product of degree above {MAX_INPUT_DEGREE}", star)
                if bound + rhs_bits > HEIGHT_BUDGET and (
                    _height(*_scaled(num, den, e, value)[:2]) + _height(*_scaled(c, d, f, rhs)[:2])
                    > HEIGHT_BUDGET
                ):
                    raise self.error(f"product of height above {HEIGHT_BUDGET} bits", star)
            if not rhs:
                bits += rhs_bits
            elif num:  # a zero product stays zero without the product
                value = self.mul(value, rhs) if value else rhs
            num, den, e = num * c, den * d, e + f
            if den != 1 and (g := gcd(num, den)) != 1:
                num, den = num // g, den // g
            if self.tokens[star := self.index] != "*":
                break
            self.index += 1
        return _scaled(num, den, e, value)

    # atom := rational | radical | basis | 'x' | '(' expr ')' | '-' atom
    def atom(self) -> tuple[int, int, int, Factor]:
        """c, den, e and v of the atom c/den * x^e * v, a run of unary minus in
        its sign: v is 0 for a rational, x or a parenthesized c/den * x^e, else
        c is 1 or -1, den 1 and e 0."""
        text = self.tokens[index := self.index]
        self.index += bool(text)  # never past the end
        sign, depth = 1, self.depth
        while text == "-":
            if (depth := depth + 1) > MAX_NESTING:
                raise self.error(f"nesting deeper than {MAX_NESTING} levels", index)
            sign = -sign
            text = self.tokens[index := self.index]
            self.index += bool(text)
        if "0" <= text < ":":  # a digit first
            p, _, q = text.partition("/")
            if (den := self.integer(q, index) if q else 1) == 0:
                raise self.error("zero denominator", index)
            g = gcd(n := self.integer(p, index), den)
            return sign * n // g, den // g, 0, 0
        if text == "x":
            return sign, 1, 1, 0
        if text == "(":
            if (depth := depth + 1) > MAX_NESTING:
                raise self.error(f"nesting deeper than {MAX_NESTING} levels", index)
            outer, self.depth = self.depth, depth
            value = self.expr()
            if self.tokens[self.index] != ")":
                raise self.error("expected ')'", self.index)
            self.index += 1
            self.depth = outer
            if mono := _monomial(value[0]):  # central: fold it as c/den * x^e
                return sign * mono[1], value[1], mono[0], 0
            return sign, 1, 0, value
        if text and text in self.basis:
            return sign, 1, 0, self.basis.index(text) * self.width
        if radical := _RADICAL_RE.fullmatch(text):
            d, field = self.integer(radical.group(1), index), self.spec.field
            if field.is_rational or field.d != d:
                raise self.error(f"radical token s{d} does not belong to the field {field}", index)
            return sign, 1, 0, 1
        if text[:1].isalpha():
            kind = self.spec.ELEMENT.__name__.lower()
            raise self.error(f"unknown symbol {text!r} in a {kind} algebra", index)
        raise self.error(f"unexpected token {text!r}", index)


def parse_poly(source: str, spec: Spec) -> Poly:
    """Parse an expression into a polynomial in left-coefficient form."""
    terms, den, _, degree = _Parser(source, spec).value
    return Poly.from_cols(spec, _columns(terms, degree, spec.table.dim), den)


def _constant(source: str, spec: Spec, kind: str) -> tuple[list[int], int]:
    """Numerators and denominator of a degree-0 expression; kind names it in the error."""
    terms, den, _, degree = _Parser(source, spec).value
    if degree > 0:
        raise ParseError(f"expected a {kind}, got a degree-{degree} polynomial")
    return [col[0] for col in _columns(terms, 0, spec.table.dim)], den


def parse_element(source: str, spec: Spec) -> Element:
    """Parse a degree-0 expression into an algebra element."""
    return spec.ELEMENT(spec, *_constant(source, spec, "point"))


def parse_scalar(source: str, field: FieldSpec) -> Scalar:
    """Parse a central expression into a ground-field scalar."""
    nums, den = _constant(source, QuatSpec.standard(field), "scalar")
    if any(nums[field.table.width :]):
        raise ParseError("expected a scalar, got a non-central element")
    return field.ELEMENT(field, nums[: field.table.width], den)
