"""Recursive-descent parser for polynomial and point expressions.

Grammar (whitespace insignificant between tokens):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | radical | basis | 'x' | '(' expr ')' | '-' atom

Rationals are written `p/q` or plain integers with no internal spaces, each
integer within CPython's int-from-text limit (4300 digits by default).  The
radical token `s<d>` (`s-3` for d = -3) names sqrt(d) and must match the
ambient field.  Basis symbols are i, j, k over quaternions and additionally
l, il, jl, kl over octonions; k always means i*j.  A constant stays a value
(a rational, sqrt(d) or an algebra element), and only `x` makes a `Poly`.
Products keep their written order, and the result is normalized to
left-coefficient form (the variable is central, so this always succeeds).
A power or product whose degree or height (bits times the exponent, or the
operands' bits added) would pass MAX_INPUT_DEGREE or HEIGHT_BUDGET bits is
refused before it is computed, a sum whose height passes HEIGHT_BUDGET
after, and so is nesting of parentheses and unary minus signs deeper than
MAX_NESTING.  A polynomial's height is that of its coordinate columns.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from ._kernel import HEIGHT_BUDGET, RationalLike
from .errors import ParseError
from .octonions import OctSpec
from .polynomials import AlgebraSpec, Element, Poly
from .quaternions import QuatSpec
from .scalars import FieldSpec, Scalar

# what the parser computes with: a constant, or a polynomial once x is in it
Value = int | Fraction | Element | Poly

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>s-\d+|[a-z]+\d*)|(?P<op>[-+*^()])|(?P<bad>\S))"
)
_RADICAL_RE = re.compile(r"^s(-?\d+)$")

# The largest degree a parsed polynomial may have: the companion of a dense
# degree-256 quaternion polynomial takes 0.08 s, and of degree 1024 5.2 s.
MAX_INPUT_DEGREE = 256

# The deepest nesting of '(' and unary '-' together.  The parser recurses:
# a parenthesis costs four frames (expr, term, factor, atom) and a unary
# minus one, so 100 levels take at most about 400 frames.  That stays well
# below CPython's default recursion limit of 1000 even when the parser is
# called a few hundred frames deep, under pytest, Hypothesis or a profiler.
MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(source):  # trailing whitespace matches nothing
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
    tokens.append(_Token("end", "", len(source)))
    return tokens


def _integer(tok: _Token, text: str) -> int:
    """int(text) for digits of the number token tok; ParseError past the limit."""
    try:
        return int(text)
    except ValueError:  # longer than the int-from-text limit
        raise ParseError(f"integer of {len(text)} digits is too long", tok.pos) from None


def _degree(value: Value) -> int:
    """The degree of a parsed value; -1 for zero, as for the zero polynomial."""
    if isinstance(value, Poly):
        return value.degree
    return -1 if (not value if isinstance(value, RationalLike) else value.is_zero) else 0


def _height(value: Value) -> int:
    """The bit length of a parsed value's largest numerator or denominator."""
    if isinstance(value, RationalLike):
        return max(abs(value.numerator), value.denominator).bit_length()
    if isinstance(value, Poly):
        return max(value.den, *(max(map(abs, col), default=0) for col in value.cols)).bit_length()
    return max(value.den, *map(abs, value.nums)).bit_length()


class _Parser:
    def __init__(self, source: str, spec: AlgebraSpec) -> None:
        self.spec = spec
        self.tokens = _tokenize(source)
        self.index = 0
        self.depth = 0  # open '(' and unary '-' around the current atom

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "end":
            self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)

    # expr := term (('+'|'-') term)*
    def expr(self) -> Value:
        value = self.term()
        while (tok := self.peek()).kind == "op" and tok.text in "+-":
            self.advance()
            rhs = self.term()
            value = value + rhs if tok.text == "+" else value - rhs
            # each operand is within the budget, so the sum costs little
            if _height(value) > HEIGHT_BUDGET:
                raise ParseError(f"sum of height above {HEIGHT_BUDGET} bits", tok.pos)
        return value

    # term := factor ('*' factor)*
    def term(self) -> Value:
        value = self.factor()
        while (tok := self.peek()).kind == "op" and tok.text == "*":
            self.advance()
            rhs = self.factor()
            if _degree(value) + _degree(rhs) > MAX_INPUT_DEGREE:
                raise ParseError(f"product of degree above {MAX_INPUT_DEGREE}", tok.pos)
            if _height(value) + _height(rhs) > HEIGHT_BUDGET:
                raise ParseError(f"product of height above {HEIGHT_BUDGET} bits", tok.pos)
            value = value * rhs
        return value

    # factor := atom ('^' uint)?
    def factor(self) -> Value:
        value = self.atom()
        if (tok := self.peek()).kind == "op" and tok.text == "^":
            self.advance()
            exp = self.advance()
            if exp.kind != "number" or "/" in exp.text:
                raise ParseError("exponent must be a nonnegative integer", exp.pos)
            t = _integer(exp, exp.text)
            degree, bits = _degree(value), _height(value)
            if degree * t > MAX_INPUT_DEGREE or bits * t > HEIGHT_BUDGET:
                raise ParseError(
                    f"power {t} of a degree-{degree}, {bits}-bit polynomial passes "
                    f"degree {MAX_INPUT_DEGREE} or {HEIGHT_BUDGET} bits", tok.pos
                )
            value = value**t
        return value

    # atom := rational | radical | basis | 'x' | '(' expr ')' | '-' atom
    def atom(self) -> Value:
        tok = self.advance()
        if tok.kind == "number":
            p, _, q = tok.text.partition("/")
            den = _integer(tok, q) if q else 1
            if den == 0:
                raise ParseError("zero denominator", tok.pos)
            return Fraction(_integer(tok, p), den) if q else _integer(tok, p)
        if tok.kind == "name":
            return self._named(tok)
        if tok.kind == "op" and tok.text in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)
            if tok.text == "(":
                inner = self.expr()
                self.expect_op(")")
            else:
                inner = -self.atom()
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _named(self, tok: _Token) -> Value:
        if tok.text == "x":
            return Poly.x(self.spec)
        radical = _RADICAL_RE.match(tok.text)
        if radical:
            d = int(radical.group(1))
            field = self.spec.field
            if field.is_rational or field.d != d:
                raise ParseError(
                    f"radical token s{d} does not belong to the field {field}",
                    tok.pos,
                )
            return field.sqrt_gen()
        try:
            return self.spec.basis_element(tok.text)
        except KeyError:
            kind = "octonion" if isinstance(self.spec, OctSpec) else "quaternion"
            raise ParseError(
                f"unknown symbol {tok.text!r} in a {kind} algebra", tok.pos
            ) from None

    def parse(self) -> Value:
        value = self.expr()
        if (tok := self.peek()).kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value


def parse_poly(source: str, spec: AlgebraSpec) -> Poly:
    """Parse an expression into a polynomial in left-coefficient form."""
    value = _Parser(source, spec).parse()
    return value if isinstance(value, Poly) else Poly.constant(spec, value)


def parse_element(source: str, spec: AlgebraSpec) -> Element:
    """Parse a degree-0 expression into an algebra element."""
    value = _Parser(source, spec).parse()
    if _degree(value) > 0:
        raise ParseError(f"expected a point, got a degree-{value.degree} polynomial")
    return value.coeff(0) if isinstance(value, Poly) else spec.coerce(value)


def parse_scalar(source: str, field: FieldSpec) -> Scalar:
    """Parse a central expression into a ground-field scalar."""
    element = parse_element(source, QuatSpec.standard(field))
    if not element.is_central:
        raise ParseError("expected a scalar, got a non-central element")
    return element.scalar_part()
