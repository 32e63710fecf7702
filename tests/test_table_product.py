"""The products of a structure-constant table, compiled from its rows and its
square's rows, against independent oracles: the reference algebra of
`helpers.reference` and its scalars' own product for a ground field, on
values read from numerators alone, and a plain walk of the rows.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quatdyn import QQ, FieldSpec, OctSpec, QuatSpec
from quatdyn._kernel import _profile
from quatdyn.cli import main, parse_algebra

from helpers import reference, values

F5, F_3 = FieldSpec(5), FieldSpec(-3)
THIRD = QuatSpec(QQ, 2, Fraction(1, 3))  # table den 3
# irrational structure constants: some column pairs land on two coordinates
SURD = QuatSpec(F5, F5.scalar(1, 1), -3)
SPECS = [
    QQ, F5, F_3,
    QuatSpec.standard(), QuatSpec.standard(F5), QuatSpec.standard(F_3),
    THIRD, QuatSpec(F5, 2, Fraction(1, 3)), SURD,
    OctSpec.standard(), OctSpec.standard(F5), OctSpec(THIRD, -5), OctSpec(SURD, F5.scalar(0, 1)),
]

ENTRY = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([2**64 - 1, -(2**64)]),
    st.integers(-(2**200), 2**200),
)


def _walk(table, x, y):
    """The product by the definition of the rows: out[r] += c * x[p] * y[q]."""
    out = [0] * table.dim
    for p, row in enumerate(table.rows):
        for q, r, c in row:
            out[r] += c * x[p] * y[q]
    return out


def _values(spec, nums, den=1):
    """The reference's scalars of the element nums/den of spec."""
    return values(spec.ELEMENT(spec, nums, den))


def _oracle(spec, x, y):
    """The reference's scalars of x*y, for numerators x and y over 1."""
    X, Y = _values(spec, x), _values(spec, y)
    if isinstance(spec, FieldSpec):
        return (X[0] * Y[0],)
    return reference(spec).mul(X, Y)


@st.composite
def operands(draw, dim, width):
    """Dense, zero, scalar (ground-field) or basis-unit coordinates."""
    kind = draw(st.sampled_from(["dense", "zero", "scalar", "unit"]))
    if kind == "dense":
        return tuple(draw(st.lists(ENTRY, min_size=dim, max_size=dim)))
    nums = [0] * dim
    if kind == "scalar":
        nums[:width] = draw(st.lists(ENTRY, min_size=width, max_size=width))
    elif kind == "unit":
        nums[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([1, -1]))
    return tuple(nums)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compiled_product_matches_the_oracles(data):
    """table.mul and table.norm_form.mul equal the walk of their rows, and
    their values those of the tuple multipliers: x*y, and the ground-field
    part of conj(x)*y."""
    spec = data.draw(st.sampled_from(SPECS), label="spec")
    table, form = spec.table, spec.table.norm_form
    x = data.draw(operands(table.dim, table.width), label="x")
    y = data.draw(operands(table.dim, table.width), label="y")
    expected = _oracle(spec, x, y)
    assert table.mul(x, y) == _walk(table, x, y)
    assert _values(spec, table.mul(x, y), table.den) == expected
    assert form.mul(x, y) == _walk(form, x, y)
    if isinstance(spec, FieldSpec):  # conj is the identity on a ground field
        assert form.mul(x, y) == table.mul(x, y)
    else:
        w, field = table.width, spec.field
        conj = x[:w] + tuple(-v for v in x[w:])
        assert _values(field, form.mul(x, y), form.den) == _oracle(spec, conj, y)[:1]


def test_constants_of_thousands_of_digits_are_bound_by_name(capsys):
    """alpha = 10^4400 makes table constants of 14,617 bits, past CPython's
    limit on the digits of an int literal, so the compiled product names them."""
    spec = parse_algebra("quat:10^4400,-1@Q")
    i = spec.i()
    assert i * i == 10**4400 and i.norm() == -(10**4400)
    argv = ["compose", "--algebra", "quat:10^4400,-1@Q", "--poly", "x^2+i", "--n", "2"]
    assert main(argv) == 0
    argv = ["orbit", "--algebra", "quat:10^4400,-1@Q", "--poly", "x^2+i", "--point", "j", "--n-max", "2"]
    assert main(argv) == 0
    capsys.readouterr()


def test_no_product_is_compiled_at_import():
    """Importing the package builds QQ's tables but compiles none of their
    products and squares."""
    import quatdyn

    script = (
        "import quatdyn.cli, quatdyn.dynamics\n"
        "from quatdyn import QQ\n"
        "from quatdyn._kernel import Table\n"
        "tables = (QQ.table, QQ.table.norm_form)\n"
        "print(all(t.mul.__func__ is Table._first_mul for t in tables)"
        " and all(t.square.__func__ is Table._first_square for t in tables))\n"
    )
    src = str(Path(quatdyn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_square_pairs_are_merged(spec):
    """Each unordered column pair p <= q, in row p of `square_rows`, holds
    each r once, with a nonzero constant: the (p, q) and (q, p) entries of
    `rows` summed by r, zero sums dropped."""
    for table in (spec.table, spec.table.norm_form):
        summed: dict[tuple[int, int, int], int] = {}
        for p, row in enumerate(table.rows):
            for q, r, c in row:
                key = (min(p, q), max(p, q), r)
                summed[key] = summed.get(key, 0) + c
        assert len(table.square_rows) == len(table.rows)
        seen = set()
        for p, row in enumerate(table.square_rows):
            for q, r, c in row:
                assert p <= q and (p, q, r) not in seen
                seen.add((p, q, r))
                assert c and c == summed[p, q, r]
        assert {k for k, c in summed.items() if c} == seen


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_products_of_packed_sizes_match_the_walk(spec):
    """mul and square on coordinates of 2,000 to 20,000 bits, the size of
    packed columns, equal the walk of the rows, and square(x, x) equals
    mul(x, x), for the main table and the norm form; some coordinates are
    zero, as in sparse columns."""
    rng = random.Random(str(spec))
    for table in (spec.table, spec.table.norm_form):
        for _ in range(4):
            x, y = (
                [rng.choice((0, 1, -1)) * rng.getrandbits(rng.randint(2000, 20000)) for _ in table.rows]
                for _ in range(2)
            )
            assert table.mul(x, y) == _walk(table, x, y)
            assert table.square(x, x) == table.mul(x, x) == _walk(table, x, x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_square_equals_the_schoolbook_square(data):
    """A packed square runs on the square's merged rows and equals the
    schoolbook square, for the main table and the norm form."""
    spec = data.draw(st.sampled_from(SPECS), label="spec")
    n = data.draw(st.integers(1, 10))
    column = st.one_of(st.lists(ENTRY, min_size=n, max_size=n), st.just([0] * n))
    F = data.draw(st.lists(column, min_size=spec.table.dim, max_size=spec.table.dim))
    for table in (spec.table, spec.table.norm_form):
        bits = _profile(F)[0]
        assert table._packed_mul(F, F, table._slot_bits(bits, bits, n)) == table.schoolbook_mul(F, F)
