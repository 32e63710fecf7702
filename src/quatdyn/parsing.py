"""Recursive-descent parser for polynomial and point expressions.

Grammar (whitespace insignificant between tokens):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | radical | basis | 'x' | '(' expr ')' | '-' atom

Rationals are `p/q` or integers with no internal spaces, within CPython's
int-from-text limit (4300 digits by default).  `s<d>` (`s-3` for d = -3) is
sqrt(d) of the field.  Basis symbols are i, j, k, and l, il, jl, kl over
octonions; k is i*j.  Every value, constants too, is the integer coordinate
columns of a polynomial over one denominator in `Poly`'s canonical form.  x
is central: a product by c*x^e (c rational) scales and shifts integers; other
products of constants run `Table.mul`, of other values `Table.poly_mul`, in
written order.  Refused, with heights measured where their bounds pass: a
power or product whose degree or height (bits times the exponent, or the
operands' bits added) would pass MAX_INPUT_DEGREE or HEIGHT_BUDGET bits,
before it is computed; a sum whose height passes HEIGHT_BUDGET; '(' and
unary '-' nested beyond MAX_NESTING.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from ._kernel import HEIGHT_BUDGET, column_height
from .errors import ParseError
from .polynomials import AlgebraSpec, Element, Poly, _reduced
from .quaternions import QuatSpec
from .scalars import FieldSpec, Scalar

# columns, denominator, a bound of the height, and (e, c) if the columns are c*x^e
Value = tuple[list[list[int]], int, int, tuple[int, int] | None]

_TOKEN = r"[-+*^()]|\d+(?:/\d+)?|s-\d+|[a-z]+\d*"
_TOKEN_RE = re.compile(_TOKEN)
_RADICAL_RE = re.compile(r"^s(-?\d+)$")

# The largest degree a parsed polynomial may have: the companion of a dense
# degree-256 quaternion polynomial takes 0.08 s, and of degree 1024 5.2 s.
MAX_INPUT_DEGREE = 256

# The deepest nesting of '(' and unary '-' together: at four frames a '(' (expr,
# term, factor, atom), well below CPython's recursion limit of 1000.
MAX_NESTING = 100


def _monomial(cols: list[list[int]]) -> tuple[int, int] | None:
    """(e, c) when cols is the integer c times x^e, else None."""
    first = cols[0]
    if first and not any(first[:-1]) and not any(map(any, cols[1:])):
        return len(first) - 1, first[-1]


class _Parser:
    """Tokens are texts, ending in "".  No list of a value changes; values share them."""

    def __init__(self, source: str, spec: AlgebraSpec) -> None:
        self.source, self.spec, self.dim = source, spec, spec.table.dim
        self.tokens = _TOKEN_RE.findall(source) + [""]
        if "".join(self.tokens) != "".join(source.split()):  # a character is in no token
            pos = re.match(rf"(?:{_TOKEN}|\s)*", source).end()
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

    def unit(self, k: int, e: int = 0, c: int = 1, den: int = 1) -> Value:
        """c/den * x^e times basis coordinate k; c and den coprime, c nonzero."""
        cols = [[0] * (e + 1)] * self.dim  # zero columns, one list
        cols[k] = [0] * e + [c]
        return cols, den, max(abs(c), den).bit_length(), (e, c) if k == 0 else None

    def mul(self, a: Value, b: Value) -> Value:
        """a*b in written order."""
        (F, fd, fb, fm), (G, gd, gb, gm) = a, b
        if not (F[0] and G[0]):
            return b if F[0] else a
        if fm or gm:  # central: a scale and a shift
            (e, c), Q = (fm, G) if fm else (gm, F)
            cols = Q if c == 1 else [[v * c for v in col] if any(col) else col for col in Q]
            cols = [[0] * e + col for col in cols] if e else cols
            cols, den = (cols, 1) if fd == gd == 1 else _reduced(cols, fd * gd)
            return cols, den, fb + gb, (len(cols[0]) - 1, cols[0][-1]) if fm and gm else None
        table = self.spec.table
        if len(F[0]) == len(G[0]) == 1:
            cols = [[v] for v in table.mul([col[0] for col in F], [col[0] for col in G])]
        else:
            cols = table.poly_mul(F, G)  # the same F twice takes the packed square
        cols, den = _reduced(cols, fd * gd * table.den)
        return cols, den, column_height(cols, den), _monomial(cols)

    def power(self, value: Value, t: int) -> Value:
        """value**t: c*x^e directly, anything else by `Poly.__pow__`."""
        if mono := value[3]:
            return self.unit(0, mono[0] * t, mono[1] ** t, value[1] ** t)
        out = Poly.from_cols(self.spec, *value[:2]) ** t
        return out.cols, out.den, column_height(out.cols, out.den), _monomial(out.cols)

    # expr := term (('+'|'-') term)*
    def expr(self) -> Value:
        value = self.term()
        if self.tokens[self.index] not in ("+", "-"):
            return value
        cols, den, bits, _ = value
        cols = [col[:] for col in cols]  # the sum adds up in place
        while (op := self.tokens[where := self.index]) in ("+", "-"):
            self.index += 1
            rhs, rhs_den, rhs_bits, _ = self.term()
            bits = (max(bits, rhs_bits) if den == rhs_den == 1 else bits + rhs_bits) + 1
            lcd, grow = lcm(den, rhs_den), max(len(rhs[0]) - len(cols[0]), 0)
            if lcd != den or grow:
                cols, den = [[v * (lcd // den) for v in col] + [0] * grow for col in cols], lcd
            scale = lcd // rhs_den if op == "+" else -lcd // rhs_den
            for col, other in zip(cols, rhs):
                if any(other):
                    for k, v in enumerate(other):
                        col[k] += v * scale
            if bits > HEIGHT_BUDGET and (bits := column_height(*_reduced(cols, den))) > HEIGHT_BUDGET:
                raise self.error(f"sum of height above {HEIGHT_BUDGET} bits", where)
        cols, den = _reduced(cols, den)
        return cols, den, bits, _monomial(cols)

    # term := factor ('*' factor)*
    def term(self) -> Value:
        value = self.factor()
        while self.tokens[where := self.index] == "*":
            self.index += 1
            rhs = self.factor()
            if len(value[0][0]) + len(rhs[0][0]) - 2 > MAX_INPUT_DEGREE:
                raise self.error(f"product of degree above {MAX_INPUT_DEGREE}", where)
            if value[2] + rhs[2] > HEIGHT_BUDGET and (
                column_height(*value[:2]) + column_height(*rhs[:2]) > HEIGHT_BUDGET
            ):
                raise self.error(f"product of height above {HEIGHT_BUDGET} bits", where)
            value = self.mul(value, rhs)
        return value

    # factor := atom ('^' uint)?
    def factor(self) -> Value:
        value = self.atom()
        if self.tokens[where := self.index] == "^":
            text = self.tokens[index := self.index + 1]
            self.index += 1 + bool(text)
            if not text[:1].isdecimal() or "/" in text:
                raise self.error("exponent must be a nonnegative integer", index)
            t, degree, bits = self.integer(text, index), len(value[0][0]) - 1, value[2]
            if degree * t > MAX_INPUT_DEGREE or bits * t > HEIGHT_BUDGET:
                bits = column_height(*value[:2])  # the bound passes: measure
            if degree * t > MAX_INPUT_DEGREE or bits * t > HEIGHT_BUDGET:
                raise self.error(f"power {t} of a degree-{degree}, {bits}-bit polynomial passes"
                                 f" degree {MAX_INPUT_DEGREE} or {HEIGHT_BUDGET} bits", where)
            value = self.power(value, t)
        return value

    # atom := rational | radical | basis | 'x' | '(' expr ')' | '-' atom
    def atom(self) -> Value:
        text = self.tokens[index := self.index]
        self.index += bool(text)  # never past the end
        if text[:1].isdecimal():
            p, _, q = text.partition("/")
            if (den := self.integer(q, index) if q else 1) == 0:
                raise self.error("zero denominator", index)
            g = gcd(n := self.integer(p, index), den)
            return self.unit(0, 0, n // g, den // g) if n else ([[]] * self.dim, 1, 1, None)
        if text in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(f"nesting deeper than {MAX_NESTING} levels", index)
            if text == "(":
                value = self.expr()
                if self.tokens[self.index] != ")":
                    raise self.error("expected ')'", self.index)
                self.index += 1
            else:
                cols, den, bits, mono = self.atom()
                mono = mono and (mono[0], -mono[1])
                value = [[-v for v in col] if any(col) else col for col in cols], den, bits, mono
            self.depth -= 1
            return value
        if text and text in self.spec.ELEMENT.BASIS:
            return self.unit(self.spec.ELEMENT.BASIS.index(text) * self.spec.table.width)
        if text == "x":
            return self.unit(0, 1)
        if radical := _RADICAL_RE.match(text):
            d, field = self.integer(radical.group(1), index), self.spec.field
            if field.is_rational or field.d != d:
                raise self.error(f"radical token s{d} does not belong to the field {field}", index)
            return self.unit(1)
        if text[:1].isalpha():
            kind = self.spec.ELEMENT.__name__.lower()
            raise self.error(f"unknown symbol {text!r} in a {kind} algebra", index)
        raise self.error(f"unexpected token {text!r}", index)


def parse_poly(source: str, spec: AlgebraSpec) -> Poly:
    """Parse an expression into a polynomial in left-coefficient form."""
    return Poly.from_cols(spec, *_Parser(source, spec).value[:2])


def parse_element(source: str, spec: AlgebraSpec) -> Element:
    """Parse a degree-0 expression into an algebra element."""
    cols, den = _Parser(source, spec).value[:2]
    if len(cols[0]) > 1:
        raise ParseError(f"expected a point, got a degree-{len(cols[0]) - 1} polynomial")
    return spec.ELEMENT(spec, [col[0] if col else 0 for col in cols], den)


def parse_scalar(source: str, field: FieldSpec) -> Scalar:
    """Parse a central expression into a ground-field scalar."""
    element = parse_element(source, QuatSpec.standard(field))
    if not element.is_central:
        raise ParseError("expected a scalar, got a non-central element")
    return element.scalar_part()
