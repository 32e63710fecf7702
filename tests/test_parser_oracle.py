"""The parser against the benchmark's independent reader of the same grammar.

Random expressions are drawn from the whole grammar: sums and differences,
products in written order (basis symbols do not commute, and over octonions
do not associate), powers of atoms and of parenthesized sums, unary minus,
nested parentheses, rationals in and out of lowest terms, zero, `x` and
`s5`, with and without spaces between tokens.  `parse_poly` must equal
`perfbench/algebra.parse`, which shares no code with quatdyn, and the
rendering of every parsed polynomial must parse back to it.
"""

import random

import pytest

from quatdyn import FieldSpec, OctSpec, QuatSpec
from quatdyn.parsing import parse_poly

import algebra
from helpers import reference, values

CASES = {str(spec): spec for spec in (QuatSpec.standard(), QuatSpec.standard(FieldSpec(5)), OctSpec.standard())}
DRAWS = 250
NUMBERS = ("0", "1", "2", "3", "7", "12", "1/2", "2/3", "4/6", "10/4", "0/3", "123456789012345678901")


class _Draw:
    """Random expressions of the grammar over the atoms of one algebra."""

    def __init__(self, rng: random.Random, symbols: tuple[str, ...]) -> None:
        self.rng, self.atoms = rng, NUMBERS + symbols + ("x",) * 3

    def space(self) -> str:
        return self.rng.choice(("", "", " "))

    def expr(self, depth: int) -> str:
        text = self.term(depth)
        for _ in range(self.rng.choice((0, 0, 1, 2))):
            text += self.space() + self.rng.choice("+-") + self.space() + self.term(depth)
        return text

    def term(self, depth: int) -> str:
        text = self.factor(depth)
        for _ in range(self.rng.choice((0, 1, 1, 2))):
            text += self.space() + "*" + self.space() + self.factor(depth)
        return text

    def factor(self, depth: int) -> str:
        text = self.atom(depth)
        if self.rng.random() < 0.3:
            text += "^" + self.rng.choice("01223")
        return text

    def atom(self, depth: int) -> str:
        kind = self.rng.random() if depth else 0.0
        if kind < 0.6:
            return self.rng.choice(self.atoms)
        if kind < 0.85:
            return "(" + self.space() + self.expr(depth - 1) + self.space() + ")"
        return "-" + self.atom(depth - 1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_parse_poly_equals_the_independent_reader(name):
    spec = CASES[name]
    alg = reference(spec)
    symbols = spec.ELEMENT.BASIS[1:] + (("s5",) if alg.d else ())
    draw = _Draw(random.Random(f"oracle:{name}"), symbols)
    kinds = set()
    for _ in range(DRAWS):
        source = draw.expr(3)
        poly = parse_poly(source, spec)
        assert values(poly) == algebra.parse(source, alg), source
        assert parse_poly(poly.render(), spec) == poly, source
        kinds.update(token for token in ("(", ")^", "-", "/", "s5", "*", "+") if token in source)
        kinds.add(poly.degree)
    # the draws reach every construct, and constants, zero and polynomials
    assert kinds >= {"(", ")^", "-", "/", "*", "+", -1, 0, 1, 2} | ({"s5"} if alg.d else set())
