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
l, il, jl, kl over octonions; k always means i*j.  Products keep their
written order, and the result is normalized to left-coefficient form (the
variable is central, so this always succeeds).  A power or product whose
degree would pass MAX_INPUT_DEGREE, or a power whose height bound (bits
times exponent) would pass HEIGHT_BUDGET, is refused before it is computed,
and so is nesting of parentheses and unary minus signs deeper than
MAX_NESTING.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from ._kernel import HEIGHT_BUDGET, height
from .errors import ParseError
from .octonions import OctSpec
from .polynomials import AlgebraSpec, Element, Poly
from .quaternions import QuatSpec
from .scalars import FieldSpec, Scalar

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
    def expr(self) -> Poly:
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    # term := factor ('*' factor)*
    def term(self) -> Poly:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                rhs = self.factor()
                if value.degree + rhs.degree > MAX_INPUT_DEGREE:
                    raise ParseError(f"product of degree above {MAX_INPUT_DEGREE}", tok.pos)
                value = value * rhs
            else:
                return value

    # factor := atom ('^' uint)?
    def factor(self) -> Poly:
        value = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp = self.advance()
            if exp.kind != "number" or "/" in exp.text:
                raise ParseError("exponent must be a nonnegative integer", exp.pos)
            t = _integer(exp, exp.text)
            # the zero polynomial has no coefficients; count it as height 1
            bits = max(height(*value.coeffs), 1)
            if value.degree * t > MAX_INPUT_DEGREE or bits * t > HEIGHT_BUDGET:
                raise ParseError(
                    f"power {t} of a degree-{value.degree}, {bits}-bit polynomial passes "
                    f"degree {MAX_INPUT_DEGREE} or {HEIGHT_BUDGET} bits", tok.pos
                )
            value = value**t
        return value

    # atom := rational | radical | basis | 'x' | '(' expr ')' | '-' atom
    def atom(self) -> Poly:
        tok = self.advance()
        if tok.kind == "number":
            p, _, q = tok.text.partition("/")
            den = _integer(tok, q) if q else 1
            if den == 0:
                raise ParseError("zero denominator", tok.pos)
            return Poly.constant(self.spec, Fraction(_integer(tok, p), den))
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

    def _named(self, tok: _Token) -> Poly:
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
            return Poly.constant(self.spec, field.sqrt_gen())
        try:
            return Poly.constant(self.spec, self.spec.basis_element(tok.text))
        except KeyError:
            kind = "octonion" if isinstance(self.spec, OctSpec) else "quaternion"
            raise ParseError(
                f"unknown symbol {tok.text!r} in a {kind} algebra", tok.pos
            ) from None

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value


def parse_poly(source: str, spec: AlgebraSpec) -> Poly:
    """Parse an expression into a polynomial in left-coefficient form."""
    return _Parser(source, spec).parse()


def parse_element(source: str, spec: AlgebraSpec) -> Element:
    """Parse a degree-0 expression into an algebra element."""
    p = parse_poly(source, spec)
    if p.degree > 0:
        raise ParseError(f"expected a point, got a degree-{p.degree} polynomial")
    return p.coeff(0)


def parse_scalar(source: str, field: FieldSpec) -> Scalar:
    """Parse a central expression into a ground-field scalar."""
    element = parse_element(source, QuatSpec.standard(field))
    if not element.is_central:
        raise ParseError("expected a scalar, got a non-central element")
    return element.scalar_part()
