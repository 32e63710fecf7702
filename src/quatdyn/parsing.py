"""Recursive-descent parser for polynomial and point expressions.

Grammar (ASCII whitespace insignificant between tokens: space, tab, LF, VT, FF, CR):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | radical | basis | 'x' | '(' expr ')' | '-' atom

Rationals are `p/q` or integers of ASCII digits with no internal spaces,
within CPython's int-from-text limit (4300 digits by default); a rational is
one token, so `p/q^n` is (p/q)^n.  `s<d>` (`s-3` for d = -3) is sqrt(d) of
the field.  Basis symbols are i, j, k, and l, il, jl, kl over octonions; k is
i*j.  Every value is sparse, {power * dim + coordinate: numerator} over one
denominator, so a sum costs its nonzero terms.  One loop reads a sum and its
products: x is central and rationals lie in the nucleus, so it folds a term's
central factors (rationals, x, parenthesized values c*x^e, their powers and
the signs) into one num/den * x^e and multiplies only the others (basis
symbols, radicals, other parenthesized values and their powers) in written
order, and an ended term's entries go, scaled and shifted, into the sum's
map.  `atom` reads '(' expr ')' by recursion, radicals and the errors.  A
ground-field constant times a basis unit moves to the unit's coordinates.
Refused, with heights measured where their bounds pass: a power or product
whose degree or height (bits times the exponent, or the operands' bits
added) would pass MAX_INPUT_DEGREE or HEIGHT_BUDGET bits, before it is
computed; a sum whose height passes HEIGHT_BUDGET, after each term; '(' and
unary '-' nested beyond MAX_NESTING.  Each refusal names the product of the
factors written so far, so folding changes no message or position.
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd, lcm

from ._kernel import HEIGHT_BUDGET, Element, Spec, column_height
from .errors import ParseError
from .polynomials import Poly
from .quaternions import QuatSpec
from .scalars import FieldSpec, Scalar

# {power * dim + coordinate: numerator}, denominator, a bound of the height, degree
Value = tuple[dict[int, int], int, int, int]
# a Value, or an int k for the unit of basis coordinate k (0 for 1)
Factor = Value | int

_TOKEN = r"[-+*^()]|[0-9]+(?:/[0-9]+)?|s-[0-9]+|[a-z]+[0-9]*"
_TOKEN_RE = re.compile(_TOKEN)
_SPACES = " \t\n\r\f\v"  # ASCII whitespace only
_RADICAL_RE = re.compile(r"s(-?[0-9]+)")

# The largest degree a parsed polynomial may have: the companion of a dense
# degree-256 quaternion polynomial takes 0.08 s, and of degree 1024 5.2 s.
MAX_INPUT_DEGREE = 256

# The deepest nesting of '(' and unary '-' together: at two frames a '(' (expr,
# atom), well below CPython's recursion limit of 1000.
MAX_NESTING = 100


def _reduced(terms: dict, den: int) -> tuple[dict, int]:
    """terms/den divided by its content."""
    g = 1 if den == 1 else gcd(den, *terms.values())
    return ({key: v // g for key, v in terms.items()}, den // g) if g != 1 else (terms, den)


def _height(terms: dict, den: int) -> int:
    """Largest bit length among den and the numerators: their `column_height`."""
    return column_height((terms.values(),), den)


@cache
def _symbols(element: type, width: int) -> dict[str, tuple[int, int, int, int, int]]:
    """x and each basis symbol -> d, f, v, degree and height of its atom 1/d * x^f * v:
    x, and the unit k * width of basis coordinate k."""
    units = {name: (1, 0, k * width, 0, 1) for k, name in enumerate(element.BASIS) if name}
    return {"x": (1, 1, 0, 1, 1), **units}


def _columns(terms: dict, degree: int, dim: int) -> list[list[int]]:
    flat = [0] * ((degree + 1) * dim)
    for key, v in terms.items():
        flat[key] = v
    return [flat[k::dim] for k in range(dim)]


def _terms(cols, dim: int) -> dict:
    return {p * dim + k: v for k, col in enumerate(cols) for p, v in enumerate(col) if v}


class _Parser:
    """Tokens are texts, ending in "".  No dict of a value is shared."""

    def __init__(self, source: str, spec: Spec) -> None:
        self.source, self.spec, self.dim = source, spec, spec.table.dim
        self.symbols = _symbols(spec.ELEMENT, spec.table.width)
        self.tokens = tokens = _TOKEN_RE.findall(source)
        tokens.append("")
        # tokens and spaces (or all ASCII whitespace) cover the source, or a character is in no token
        gap = len(source) - len("".join(tokens))
        if gap != source.count(" ") and gap != sum(map(source.count, _SPACES)):
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

    def rational(self, text: str, index: int, sign: int) -> tuple[int, int]:
        """sign * p/q for the token p/q or p, in lowest terms."""
        p, _, q = text.partition("/")
        if (d := self.integer(q, index) if q else 1) == 0:
            raise self.error("zero denominator", index)
        g = gcd(c := sign * self.integer(p, index), d)
        return c // g, d // g

    def scaled(self, c: int, den: int, e: int, value: Factor) -> Value:
        """c/den * x^e * value, c and den coprime."""
        if value.__class__ is int:
            return ({e * self.dim + value: c}, den, (abs(c) | den).bit_length(), e) if c else ({}, 1, 1, -1)
        if c == den == 1 and not e:
            return value
        terms, vden, bits, degree = value
        if not (c and terms):
            return {}, 1, 1, -1
        terms, vden = _reduced({key + e * self.dim: v * c for key, v in terms.items()}, den * vden)
        return terms, vden, bits + (abs(c) | den).bit_length(), degree + e

    def mul(self, a: Factor, b: Factor) -> Value:
        """a*b in written order.  A ground-field constant a times a basis unit
        b (no radical) is central: its terms move to b's coordinates, no product."""
        a, width = self.scaled(1, 1, 0, a), self.spec.table.width
        if b.__class__ is int and not b % width and not a[3] and max(a[0]) < width:
            terms, den, bits, _ = a
            return {k + b: v for k, v in terms.items()}, den, bits, 0
        b = self.scaled(1, 1, 0, b)
        (F, fd, _, fdeg), (G, gd, _, gdeg) = a, b
        if not (F and G):
            return b if F else a
        table, dim = self.spec.table, self.dim
        F, G = _columns(F, fdeg, dim), _columns(G, gdeg, dim)
        if fdeg == gdeg == 0:
            cols = [[v] for v in table.mul([col[0] for col in F], [col[0] for col in G])]
        else:
            cols = table.poly_mul(F, G)
        terms, den = _reduced(_terms(cols, dim), fd * gd * table.den)
        return terms, den, _height(terms, den), max(terms) // dim if terms else -1

    def power(self, value: Factor, t: int) -> Value:
        """value**t by `Poly.__pow__`."""
        terms, den, _, degree = self.scaled(1, 1, 0, value)
        out = Poly.from_cols(self.spec, _columns(terms, degree, self.dim), den) ** t
        terms = _terms(out.cols, self.dim)
        return terms, out.den, _height(terms, out.den), out.degree

    # expr := term (('+' | '-') term)*, term := factor ('*' factor)*, factor := atom ('^' uint)?
    def expr(self) -> Value:
        """The sum, in one loop over the factors c/d * x^f * v of degree rdeg and
        height at most rbits.  The term so far is num/den * x^e * value, its sign
        in num, num/den of height at most bits and value of at most vbits and of
        degree vdeg (0 and 0 for 1 or a unit).  An ended term goes into
        total/sden, of height at most sbits."""
        tokens, symbols, base, dim = self.tokens, self.symbols, self.depth, self.dim
        total, sden, sbits, where = {}, 1, 0, 0  # where: the index of the term's sign
        get = total.get
        num, den, e, value, bits, star, vbits, vdeg = 1, 1, 0, 0, 1, 0, 0, 0  # star: the '*' before
        i = self.index
        while True:
            text, sign, depth = tokens[i], 1, base
            while text == "-":  # a run of unary minus
                if (depth := depth + 1) > MAX_NESTING:
                    raise self.error(f"nesting deeper than {MAX_NESTING} levels", i)
                sign, i = -sign, i + 1
                text = tokens[i]
            if text in symbols:
                d, f, rhs, rdeg, rbits = symbols[text]
                c, i = sign, i + 1
            elif "0" <= text < ":":  # a digit first: a rational
                try:
                    c, d = sign * int(text), 1
                except ValueError:  # p/q, or past the int-from-text limit
                    c, d = self.rational(text, i, sign)
                f, rhs, rdeg, rbits, i = 0, 0, 0 if c else -1, len(text) << 2, i + 1  # 4 bits a digit
            else:
                self.index = i
                c, d, f, rhs, rdeg, rbits = self.atom(text, sign, depth)
                i = self.index
            if (text := tokens[i]) == "^":
                text = tokens[index := i + 1]
                if not (text.isascii() and text.isdigit()):
                    raise self.error("exponent must be a nonnegative integer", index)
                t = self.integer(text, index)
                if rdeg * t > MAX_INPUT_DEGREE or rbits * t > HEIGHT_BUDGET:
                    rbits = _height(*self.scaled(c, d, f, rhs)[:2])  # the bound passes: measure
                    if rdeg * t > MAX_INPUT_DEGREE or rbits * t > HEIGHT_BUDGET:
                        raise self.error(f"power {t} of a degree-{rdeg}, {rbits}-bit polynomial"
                                         f" passes degree {MAX_INPUT_DEGREE} or {HEIGHT_BUDGET} bits", i)
                c, d, f, i = c**t, d**t, f * t, index + 1
                rhs = rhs and self.power(rhs, t)
                rdeg, rbits = (rhs[3], rhs[2]) if rhs else (f if c else -1, (abs(c) | d).bit_length())
                text = tokens[i]
            if star:  # the product so far, of degree at most MAX_INPUT_DEGREE, times the factor
                if rdeg > 0 and (e + vdeg if num and vdeg >= 0 else -1) + rdeg > MAX_INPUT_DEGREE:
                    raise self.error(f"product of degree above {MAX_INPUT_DEGREE}", star)
                if bits + vbits + rbits > HEIGHT_BUDGET and (
                    _height(*self.scaled(num, den, e, value)[:2]) + _height(*self.scaled(c, d, f, rhs)[:2])
                    > HEIGHT_BUDGET
                ):
                    raise self.error(f"product of height above {HEIGHT_BUDGET} bits", star)
            if rhs:  # c is 1 or -1, d is 1 and f is 0
                if num:  # a zero product stays zero without the product
                    value = self.mul(value, rhs) if value else rhs
                    if value.__class__ is not int:
                        vbits, vdeg = value[2], value[3]
                num *= c
            else:
                bits += rbits
                num, den, e = num * c, den * d, e + f
                if den != 1 and (g := gcd(num, den)) != 1:
                    num, den = num // g, den // g
            if text == "*":
                star, i = i, i + 1
                continue
            # the term ends; the sum's height gains at most the term's and 1
            if value.__class__ is int:
                terms, tden, sbits = None, den, sbits + bits + 1
            else:
                terms, tden, tbits, _ = value
                tden, sbits, vbits, vdeg = den * tden, sbits + tbits + bits + 1, 0, 0
            if num:
                if tden != sden:  # over the common denominator
                    if (lcd := lcm(sden, tden)) != sden:
                        for key in total:
                            total[key] *= lcd // sden
                    sden, num = lcd, num * (lcd // tden)
                if terms is None:
                    total[key] = get(key := e * dim + value, 0) + num
                elif not total and num == 1 and not e:  # the sum so far is 0: the term's map is its own
                    total, get = terms, terms.get
                else:
                    shift = e * dim
                    for key, v in terms.items():
                        total[key] = get(key := key + shift, 0) + v * num
            if where and sbits > HEIGHT_BUDGET and (sbits := _height(*_reduced(total, sden))) > HEIGHT_BUDGET:
                raise self.error(f"sum of height above {HEIGHT_BUDGET} bits", where)
            if text != "+" and text != "-":
                break
            where, i, num, den, e, value, bits, star = i, i + 1, 1 if text == "+" else -1, 1, 0, 0, 1, 0
        self.index = i
        if 0 in total.values():
            total = {key: v for key, v in total.items() if v}
        total, sden = _reduced(total, sden) if sden != 1 else (total, 1)
        return total, sden, sbits, max(total) // dim if total else -1

    # atom := rational | radical | basis | 'x' | '(' expr ')' | '-' atom
    def atom(self, text: str, sign: int, depth: int) -> tuple[int, int, int, Factor, int, int]:
        """c, d, f, v, degree and a height bound of c/d * x^f * v, the atom text
        at self.index that `expr` does not read, a run of unary minus before it
        in sign and depth: '(' expr ')' (v is 0 where it is central), a radical."""
        index = self.index
        if text == "(":
            if (depth := depth + 1) > MAX_NESTING:
                raise self.error(f"nesting deeper than {MAX_NESTING} levels", index)
            outer, self.depth, self.index = self.depth, depth, index + 1
            value = self.expr()
            if self.tokens[self.index] != ")":
                raise self.error("expected ')'", self.index)
            self.index, self.depth = self.index + 1, outer
            if len(value[0]) == 1:
                (key, c), = value[0].items()
                if not key % self.dim:  # central: fold it as c/d * x^f
                    f, c, d = key // self.dim, sign * c, value[1]
                    return c, d, f, 0, f, (abs(c) | d).bit_length()
            return sign, 1, 0, value, value[3], value[2]
        if radical := _RADICAL_RE.fullmatch(text):
            d, field = self.integer(radical.group(1), index), self.spec.field
            if field.is_rational or field.d != d:
                raise self.error(f"radical token s{d} does not belong to the field {field}", index)
            self.index += 1
            return sign, 1, 0, 1, 0, 1
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
    nums = [0] * spec.table.dim
    for k, v in terms.items():
        nums[k] = v
    return nums, den


def parse_element(source: str, spec: Spec) -> Element:
    """Parse a degree-0 expression into an algebra element."""
    return spec.ELEMENT(spec, *_constant(source, spec, "point"))


def parse_scalar(source: str, field: FieldSpec) -> Scalar:
    """Parse a central expression into a ground-field scalar."""
    nums, den = _constant(source, QuatSpec.standard(field), "scalar")
    if any(nums[field.table.width :]):
        raise ParseError("expected a scalar, got a non-central element")
    return field.ELEMENT(field, nums[: field.table.width], den)
