import random
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from quatdyn import (
    DegreeCapError,
    FieldSpec,
    OctSpec,
    Poly,
    QQ,
    QuatSpec,
    UnsupportedAlgebraError,
)

from quatdyn._kernel import (
    KRONECKER_BITS,
    KRONECKER_MIN,
    KRONECKER_WIDE,
    PATHS,
    _profile,
    column_height,
    pack,
    unpack,
)
from quatdyn.cli import parse_algebra
from quatdyn.polynomials import divmod_monic
from quatdyn.solver import companion

from helpers import rand_oct, rand_poly, rand_quat, rand_subfield_pair, reference, values

H = QuatSpec.standard()
O = OctSpec.standard()
F5 = FieldSpec(5)
THIRD = QuatSpec(QQ, 2, Fraction(1, 3))
# irrational structure constants: some column pairs land on two coordinates
SURD = QuatSpec(F5, F5.scalar(1, 1), -3)
SURD_OCT = OctSpec(SURD, F5.scalar(0, 1))
TABLE_SPECS = [
    H,
    QuatSpec.standard(F5),
    THIRD,
    SURD,
    O,
    OctSpec(THIRD, -5),
    OctSpec.standard(F5),
]

I, J, K = H.i(), H.j(), H.k()

coords = st.fractions(min_value=-2, max_value=2, max_denominator=2)
quats = st.tuples(coords, coords, coords, coords).map(lambda t: H.element(*t))
polys = st.lists(quats, min_size=0, max_size=4).map(lambda cs: Poly(H, cs))


SPLIT = QuatSpec(QQ, 1, 1)  # i*i = 1, so (1 + i)*(1 - i) = 0


def assert_canonical(p):
    """p's columns are those of its reduced coefficients over their lcm, and
    rebuilding p from its coefficients gives an equal, equally hashed Poly."""
    rebuilt = Poly(p.spec, p.coeffs)
    assert p == rebuilt and hash(p) == hash(rebuilt)
    assert p.is_zero or not p.coeffs[-1].is_zero
    den = lcm(*(c.den for c in p.coeffs))
    assert p.den == den
    assert p.cols == [
        [c.nums[k] * (den // c.den) for c in p.coeffs] for k in range(p.spec.table.dim)
    ]


def test_normal_form_and_degree():
    p = Poly(H, [1, I, H.zero(), H.zero()])
    assert p.degree == 1
    assert Poly(H).degree == -1
    assert Poly(H, [H.zero()]).is_zero
    assert Poly.x(H).degree == 1

    half, third = Fraction(1, 2), Fraction(1, 3)
    f = Poly(H, [half, I / 6, 0, third * J + K / 4, H.zero()])  # mixed denominators
    g = Poly(SPLIT, [half, 1 + SPLIT.i()])
    h = Poly(SPLIT, [third, 1 - SPLIT.i()])
    paths = {
        "constructor": f,
        "cancelling sum": f + Poly(H, [0, I / 3, 0, -third * J - K / 4]),
        "cancelling difference": f - Poly(H, [third, 0, 0, third * J + K / 4]),
        "negation": -f,
        "split product": g * h,
        "compose": f.compose(Poly(H, [half, J / 3])),
        "companion": companion(Poly(H, [half + K, I / 3, 1])),
        "zero": Poly(H),
        "zero sum": f - f,
        "zero split product": Poly(SPLIT, [1 + SPLIT.i()]) * Poly(SPLIT, [1 - SPLIT.i()]),
    }
    for p in paths.values():
        assert_canonical(p)
    assert paths["cancelling sum"].degree == 1
    assert paths["cancelling difference"].degree == 1
    assert paths["split product"].degree == 1  # the leading (1 + i)*(1 - i) vanishes
    assert paths["zero sum"] == Poly(H) == paths["zero"]
    assert paths["zero split product"].is_zero and paths["zero split product"].den == 1


def test_product_keeps_coefficient_order():
    f = Poly.x(H) + I
    g = Poly.x(H) + J
    prod = f * g
    assert prod == Poly(H, [I * J, I + J, 1])  # constant is ij = k, not ji


def test_product_of_conjugate_pair_is_central_quartic():
    g = Poly(H, [1 + K, I, 1])
    gbar = Poly(H, [1 - K, -I, 1])
    assert gbar * g == Poly(H, [2, 0, 3, 0, 1])


def test_product_and_evaluation_match_tuple_oracles():
    rng = random.Random(41)
    for spec in TABLE_SPECS:
        draw = rand_oct if isinstance(spec, OctSpec) else rand_quat
        alg = reference(spec)
        for _ in range(10):
            f = rand_poly(rng, spec, rng.randint(0, 3), den=2)
            g = rand_poly(rng, spec, rng.randint(0, 3), den=2)
            # trimmed: over a split algebra the top product may vanish
            assert values(f * g) == alg.trim(alg.pmul(values(f), values(g)))
            # f(lam) = sum c_i lam^i with left-nested powers
            lam = draw(rng, spec, den=3)
            assert values(f(lam)) == alg.evaluate(values(f), values(lam))


# -- packed (Kronecker) products ------------------------------------------------

KRONECKER_SPECS = [H, QuatSpec.standard(F5), THIRD, SURD, O, OctSpec.standard(F5), SURD_OCT]

# heights on both sides of a byte: small, at 64 bits, and far above
ENTRY = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([2**64 - 1, -(2**64 - 1), 2**64, -(2**64)]),
    st.integers(-(2**200), 2**200),
)


def _values(spec, cols, den=1):
    """The reference's scalars of each coefficient of columns over den, trailing
    zeros kept: product columns lie over the table's denominator."""
    return [values(spec.ELEMENT(spec, nums, den)) for nums in zip(*cols)]


def _tuple_product(spec, F, G):
    """The reference's product of two column polynomials over 1."""
    return reference(spec).pmul(_values(spec, F), _values(spec, G))


def _packed(table, F, G):
    """F * G by the packed product, at the slot of F's and G's widest coefficients."""
    slot = table._slot_bits(_profile(F)[0], _profile(G)[0], min(len(F[0]), len(G[0])))
    return table._packed_mul(F, G, slot)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_poly_mul_matches_the_tuple_oracle_on_both_paths(data):
    spec = data.draw(st.sampled_from(KRONECKER_SPECS))
    dim = spec.table.dim

    def columns(n):
        column = st.one_of(st.lists(ENTRY, min_size=n, max_size=n), st.just([0] * n))
        return data.draw(st.lists(column, min_size=dim, max_size=dim))

    # lengths 1..12 straddle the crossover; a square passes one object twice
    F = columns(data.draw(st.integers(1, 12)))
    G = F if data.draw(st.booleans()) else columns(data.draw(st.integers(1, 12)))
    expected = _tuple_product(spec, F, G)
    assert _values(spec, spec.table.poly_mul(F, G), spec.table.den) == expected
    assert _values(spec, _packed(spec.table, F, G), spec.table.den) == expected


@pytest.mark.parametrize("spec", KRONECKER_SPECS, ids=str)
def test_packed_product_fills_its_slots(spec):
    """Operands whose product reaches the slot bound for the busiest output r.

    All coefficients are +-(2**b - 1), the lengths are 2**3 - 1, and the signs
    make every term landing on r add up, so over `quat:2,1/3@Q` and `Q(s5)`
    (structure constants summing to 12, 24 or 48 on r) a coefficient of r
    needs all but the sign bit of the slot; with eight consecutive heights
    for F, one slot ends exactly on a byte boundary.
    """
    table, n = spec.table, 7
    spread = [0] * table.dim
    for row in table.rows:
        for _, r, c in row:
            spread[r] += abs(c)
    busy = spread.index(max(spread))
    sign = [1] * table.dim
    for row in table.rows:
        for q, r, c in row:
            if r == busy:
                sign[q] = 1 if c > 0 else -1
    G = [[s * ((1 << 64) - 1)] * n for s in sign]
    for bits in range(60, 68):
        F = [[(1 << bits) - 1] * n for _ in range(table.dim)]
        for g in (G, [[-v for v in col] for col in G]):
            assert _packed(table, F, g) == table.schoolbook_mul(F, g)


NORM_SPECS = KRONECKER_SPECS + [
    parse_algebra(text) for text in ("quat:1,-1@Q", "quat:-1,-1@Q(s-3)", "oct:2,-3,5@Q(s5)")
]


def _conj_square(spec, F):
    """Ground-field coordinates of the coefficients of conj(F)*F by the reference."""
    alg, f = reference(spec), _values(spec, F)
    return [c[:1] for c in alg.pmul([alg.conj(c) for c in f], f)]


def _ground(spec, cols):
    """Values of norm-form columns, which lie over the table's denominator."""
    return _values(spec.field, cols, spec.table.den)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_norm_form_is_the_ground_field_part_of_the_conjugate_square(data):
    """Every product path of the norm form, and its element product, give the
    ground-field columns of conj(F)*F; coefficient 0 is the norm of F's
    constant coefficient."""
    spec = data.draw(st.sampled_from(NORM_SPECS), label="spec")
    table, form = spec.table, spec.table.norm_form
    assert form.dim == table.width
    n = data.draw(st.integers(1, 12))
    column = st.one_of(st.lists(ENTRY, min_size=n, max_size=n), st.just([0] * n))
    F = data.draw(st.lists(column, min_size=table.dim, max_size=table.dim))
    expected = _conj_square(spec, F)
    assert _ground(spec, form.poly_mul(F, F)) == expected
    assert _ground(spec, _packed(form, F, F)) == expected
    assert _ground(spec, form.schoolbook_mul(F, F)) == expected
    x = [col[0] for col in F]
    assert _ground(spec, [[v] for v in form.mul(x, x)]) == expected[:1]


@pytest.mark.parametrize("spec", NORM_SPECS, ids=str)
def test_packed_norm_form_fills_its_slots(spec):
    """conj(F)*F packed at the norm form's own slot, which may be narrower
    than the main table's: seven coefficients whose coordinates are all
    +-(2**b - 1), with equal signs and with signs alternating by coordinate,
    for eight consecutive b, so that one slot ends on a byte boundary."""
    form, dim, n = spec.table.norm_form, spec.table.dim, 7
    for bits in range(60, 68):
        top = (1 << bits) - 1
        for signs in ([1] * dim, [(-1) ** p for p in range(dim)]):
            F = [[s * top] * n for s in signs]
            assert _packed(form, F, F) == form.schoolbook_mul(F, F)



@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unpack_inverts_pack(data):
    """Digits in [-slot/2, slot/2), the bottom one included, come back from
    their packed value: `size` of them, trailing zeros too, as `_packed_mul`
    reads a product."""
    nbytes = data.draw(st.integers(1, 3))
    half = 1 << (8 * nbytes - 1)
    edges = st.sampled_from([-half, -half + 1, -1, 0, 1, half - 1])
    col = data.draw(st.lists(st.one_of(edges, st.integers(-half, half - 1)), max_size=10))
    v = pack(col, nbytes)
    assert v == sum(c << (8 * nbytes * i) for i, c in enumerate(col))
    assert unpack(v, nbytes, len(col)) == col
    assert unpack(v, nbytes, len(col) + 2) == col + [0, 0]


def test_unpack_at_the_slot_edges():
    for nbytes in (1, 2, 5):
        half, base = 1 << (8 * nbytes - 1), 1 << (8 * nbytes)
        assert unpack(-half, nbytes, 1) == [-half]
        assert unpack(half, nbytes, 2) == [-half, 1]  # half itself is no digit
        assert unpack(-half * base, nbytes, 2) == [0, -half]
        top = (half - 1) * (base**3 - 1) // (base - 1)  # three digits half - 1
        assert unpack(top, nbytes, 3) == [half - 1] * 3
        assert unpack(top + 1, nbytes, 4) == [-half, -half, -half, 1]
        assert unpack(0, nbytes, 0) == []

def test_poly_mul_keeps_uneven_heights_on_the_schoolbook_path():
    # one tall coefficient would widen every packed slot
    F = [[10**500] + [1] * 11] + [[0] * 12 for _ in range(3)]
    assert not _profile(F)[1]
    assert _profile([[10**500] * 12] + [[0] * 12 for _ in range(3)]) == (1661, True)


def _operand(*heights):
    """Quaternion columns whose i-th coefficient has all coordinates 2**heights[i] - 1."""
    return [[(1 << h) - 1 for h in heights] for _ in range(H.table.dim)]


def _rule_profile(F):
    """Bits of the widest coefficient, and whether twice the summed coefficient
    widths reach their number times that width."""
    widths = [max(abs(v).bit_length() for v in coeff) for coeff in zip(*F)]
    return max(widths), 2 * sum(widths) >= len(widths) * max(widths)


def _rule_slot(F, G):
    """bits(F) + bits(G) + bits(short) + spread + 1, with short the shorter length."""
    short = min(len(F[0]), len(G[0]))
    return _rule_profile(F)[0] + _rule_profile(G)[0] + short.bit_length() + H.table.spread_bits + 1


def _rule_packs(F, G):
    """Whether the product of F and G is packed: at least KRONECKER_MIN
    coefficients each, F even, and a square, or G even and the shorter operand
    has a coefficient per KRONECKER_BITS bits of slot or KRONECKER_WIDE of them."""
    short = min(len(F[0]), len(G[0]))
    if short < KRONECKER_MIN or not _rule_profile(F)[1]:
        return False
    dense = short >= min(_rule_slot(F, G) // KRONECKER_BITS, KRONECKER_WIDE)
    return G is F or _rule_profile(G)[1] and dense


def _spy_paths(monkeypatch):
    """Record each schoolbook_mul call as ("schoolbook", len F, len G), and
    each packed product, which every product path runs through `_packed_mul`,
    as ("packed", len F, len G).  A schoolbook_mul that adds into `out` is
    Table.compose's sum, on the columns or on packed powers, and is not
    recorded: which sum was taken shows in _kernel.PATHS (`_sum_counts`)."""
    events = []
    Table = type(H.table)
    schoolbook_mul, packed_mul = Table.schoolbook_mul, Table._packed_mul

    def spied_schoolbook(self, F, G, out=None):
        if out is None:
            events.append(("schoolbook", len(F[0]), len(G[0])))
        return schoolbook_mul(self, F, G, out)

    def spied_packed(self, F, G, slot):
        events.append(("packed", len(F[0]), len(G[0])))
        return packed_mul(self, F, G, slot)

    monkeypatch.setattr(Table, "schoolbook_mul", spied_schoolbook)
    monkeypatch.setattr(Table, "_packed_mul", spied_packed)
    return events


def _sum_counts():
    """The counts of Table.compose's two sums in _kernel.PATHS: (columns, packed)."""
    return PATHS["compose", "columns"], PATHS["compose", "packed"]


def _check_paths(events, products, before, taken=None):
    """The events show exactly `products`, a list of (len F, len G, packed),
    in order, each schoolbook or packed as given, and the sum counts, against
    `before` (`_sum_counts`), show one compose sum on the path `taken`
    ("columns" or "packed"), or none."""
    assert events == [("packed" if packed else "schoolbook", f, g) for f, g, packed in products]
    assert _sum_counts() == tuple(n + (path == taken) for n, path in zip(before, ("columns", "packed")))


def test_poly_mul_takes_the_path_of_its_rule(monkeypatch):
    """poly_mul's choice between the schoolbook and the packed product, on
    both sides of every crossover of the rule written out above."""
    short = 10  # bits(short) = 4, so the slot is bits(F) + 32 + 4 + spread + 1
    tail = short.bit_length() + H.table.spread_bits + 1
    G = _operand(*[32] * 12)
    tall = [500] + [1] * 11
    cases = [
        (_operand(*[3] * 5), _operand(*[3] * 8), False),  # 5 coefficients
        (_operand(*[3] * 6), _operand(*[3] * 8), False),  # 6 coefficients
        # slot // KRONECKER_BITS = short + 1, short (its first and last bit), short - 1
        *(
            (_operand(*[slot - 32 - tail] * short), G, False)
            for slot in (64 * (short + 1), 64 * short + 63, 64 * short, 64 * (short - 1))
        ),
        (_operand(*[1000] * 24), _operand(*[1000] * 30), False),  # slot // 64 > KRONECKER_WIDE
        (_operand(*[1000] * 23), _operand(*[1000] * 30), False),
        (_operand(*tall), _operand(*[1] * 12), False),  # one tall coefficient in F
        (_operand(*[1] * 12), _operand(*tall), False),  # and in G
        # twice the summed widths 128 (even) and 126 against 8 times the widest, 16
        (_operand(16, *[7] * 6, 6), _operand(*[3] * 8), False),
        (_operand(16, *[7] * 6, 5), _operand(*[3] * 8), False),
    ]
    # squares skip the density test, conj(F)*F (norm) too; a copy of F is another operand
    wide, wide5, tall = _operand(*[2000] * 8), _operand(*[2000] * 5), _operand(*tall)
    for norm in (False, True):
        cases += [(wide, wide, norm), (wide5, wide5, norm), (tall, tall, norm)]
    cases.append((list(wide), wide, False))
    expected = [_rule_packs(F, G) for F, G, _ in cases]
    assert expected == [False, True, False, True, True, True, True, False, False, False, True, False] + [
        True, False, False
    ] * 2 + [False]
    events = _spy_paths(monkeypatch)
    for (F, G, norm), packed in zip(cases, expected):
        events.clear()
        before = _sum_counts()
        (H.table.norm_form if norm else H.table).poly_mul(F, G)
        _check_paths(events, [(len(F[0]), len(G[0]), packed)], before)


def _power_columns(P, G):
    """Columns of P * G over H = (-1, -1), by the reference on integers."""
    product = reference(H).pmul([*zip(*P)], [*zip(*G)])
    return [[int(v) for v in col] for col in zip(*product)]


def test_compose_takes_the_path_of_its_rule(monkeypatch):
    """Table.compose's powers g^i = g^(i-1) * g follow poly_mul's rule; its
    sum is packed when m > 1, g is even and the shorter of g^(m-1) and g has a
    coefficient per KRONECKER_BITS bits of their slot or KRONECKER_WIDE of
    them (at any length: no KRONECKER_MIN), otherwise summed on the columns,
    which takes g^m by the product rule too."""
    gs = {
        "even": _operand(*[3] * 8),
        "uneven": _operand(*[500] + [3] * 7),
        "short wide": _operand(*[2000] * 3),
        "short narrow": _operand(3, 2, 3),
        "long wide": _operand(*[2000] * 8),
    }
    seen = set()
    events = _spy_paths(monkeypatch)
    for m in (1, 2, 3):
        F = _operand(*[2] * (m + 1))
        for name, G in gs.items():
            products, powers = [], [G]
            while len(powers) < m - 1:
                P = powers[-1]
                products.append((len(P[0]), len(G[0]), _rule_packs(P, G)))
                powers.append(_power_columns(P, G))
            last = powers[-1]
            dense = len(G[0]) >= min(_rule_slot(last, G) // KRONECKER_BITS, KRONECKER_WIDE)
            summed = m > 1 and _rule_profile(G)[1] and dense
            if m > 1 and not summed:
                products.append((len(last[0]), len(G[0]), _rule_packs(last, G)))
            seen.update((packed, summed) for *_, packed in products)
            events.clear()
            before = _sum_counts()
            H.table.compose(F, G, 1)
            _check_paths(events, products, before, "packed" if summed else "columns")
    assert seen == {(False, False), (True, False), (False, True), (True, True)}


class _CountedColumns(list):
    """Columns that count the passes over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("m, limit", [(2, 2), (3, 3)])
def test_compose_reads_g_once_to_measure_it(monkeypatch, m, limit):
    """On the packed path, compose measures g once and packs it once per slot
    it is packed at: the composite's, and the square's for m = 3.  Its
    result is the reference's sum c_i * (g^i)."""
    rng = random.Random(m)
    G = _CountedColumns([[rng.randint(-9, 9) for _ in range(16)] for _ in range(H.table.dim)])
    F = [[rng.randint(1, 9) for _ in range(m + 1)] for _ in range(H.table.dim)]
    events = _spy_paths(monkeypatch)
    columns = _sum_counts()[0]
    cols = H.table.compose(F, G, 1)
    assert _sum_counts()[0] == columns and not any(e[0] == "schoolbook" for e in events)
    assert G.passes <= limit
    f, g = Poly.from_cols(H, F, 1), Poly.from_cols(H, list(G), 1)
    composite = Poly.from_cols(H, cols, 1)
    assert values(composite) == _tuple_compose(f, g)


def _tuple_compose(f, g):
    """The reference's sum c_i * (g^i), the powers left-nested."""
    alg, f, g = reference(f.spec), values(f), values(g)
    out, power = f[:1], None
    for c in f[1:]:
        power = g if power is None else alg.pmul(power, g)
        out = alg.padd(out, alg.pmul([c], power))
    return alg.trim(out)


def test_compose_equals_the_tuple_oracle():
    """compose against the reference's sum c_i * (g^i) (`_tuple_compose`).

    The cases reach each path of `Table.compose`: degrees of f up to 6, some
    sparse, form the powers by `poly_mul` and the top one by the packed pair
    products; g with coordinates +-(2**b - 1), b up to 2000, brings the
    packed sum within about a byte of the slot that `_compose_bits` allows,
    and short wide g takes the schoolbook sum, as an uneven g does;
    denominators up to 10**6 on f and g make the scale and the content that
    the canonical form divides out; zero and constant f and g, and a split g
    whose square vanishes, are the edge cases.
    """
    rng = random.Random(53)
    i, k = SPLIT.i(), SPLIT.k()
    cases = [
        (Poly(H, [0, 0, 4]), Poly(H, [Fraction(1, 2), Fraction(1, 2)])),  # (x+1)^2
        (Poly(H, [1, 2]), Poly(H)),
        (Poly(H, [I]), Poly(H, [1, J])),
        (Poly(H), Poly(H, [1, J])),
        (Poly(H, [I]), Poly(H)),
        (Poly(H, [Fraction(1, 3), J, K]), Poly(H, [Fraction(2, 7) + I])),
        (Poly(H, [J, 0, 1, I]), Poly(H, [10**300 * I, 0, 1])),  # uneven g
        (Poly(SPLIT, [1, 2, i, 3 + k]), Poly(SPLIT, [0, i + k])),  # ((i+k)x)^2 = 0
    ]
    for spec in TABLE_SPECS:
        for _ in range(3):
            f = rand_poly(rng, spec, rng.randint(0, 4), den=6)
            cases.append((f, rand_poly(rng, spec, rng.randint(0, 7), den=6)))
    for spec in TABLE_SPECS:
        basis = [spec.basis_element(sym) for sym in spec.ELEMENT.BASIS]
        sizes = [(b, rng.randint(2, 7)) for b in (64, 500, 2000)] + [(2000, 24)] * (spec is H)
        for b, length in sizes:
            wide = [sum(rng.choice((-1, 1)) * (2**b - 1) * e for e in basis) for _ in range(length)]
            cases.append((rand_poly(rng, spec, 2), Poly(spec, wide)))
        f = rand_poly(rng, spec, 6)
        sparse = Poly(spec, [c if rng.random() < 0.5 else 0 for c in f.coeffs[:-1]] + [f.coeffs[-1]])
        cases.append((sparse, rand_poly(rng, spec, rng.randint(1, 2))))
        dens = (rand_poly(rng, spec, d, den=10**6) for d in (rng.randint(2, 3), rng.randint(1, 4)))
        cases.append(tuple(dens))
    for f, g in cases:
        composite = f.compose(g)
        assert values(composite) == _tuple_compose(f, g)
        assert_canonical(composite)


def test_multiplication_by_one():
    f = Poly(H, [1 + K, I, 1])
    assert f * Poly.constant(H, 1) == f
    assert Poly.constant(H, 1) * f == f
    # an element or a number on the left: __rmul__ and __rsub__
    assert I * f == Poly.constant(H, I) * f
    assert 1 - f == Poly.constant(H, 1) - f


def test_evaluation_is_not_a_ring_homomorphism():
    f = Poly.x(H) - I
    lam = J
    assert (f * f)(lam) != f(lam) * f(lam)


def test_evaluation_examples():
    g = Poly(H, [1 + K, I, 1])  # x^2 + ix + 1 + ij
    assert g(-J).is_zero
    f = Poly(H, [0, 0, I])  # ix^2
    assert f(J + 1) == 2 * K
    assert f(2 * K) == -4 * I
    assert g(H.zero()) == 1 + K


def test_power_examples():
    f = Poly(H, [0, 0, I])
    assert f**2 == Poly(H, [0, 0, 0, 0, -1])
    assert f**1 == f
    assert (f**0) == Poly.constant(H, 1)
    for n in (-1, 1.5):
        with pytest.raises(ValueError, match="^polynomial powers take a nonnegative integer exponent$"):
            f**n


def test_power_of_value_from_commuting_evaluation():
    # when f(lam) commutes with lam, evaluating f**t equals f(lam)**t
    rng = random.Random(23)
    for _ in range(100):
        w, sample = rand_subfield_pair(rng, H)
        f = Poly(H, [sample() for _ in range(3)])
        lam = sample()
        t = rng.randint(1, 4)
        assert lam.commutes(f(lam))
        assert (f**t)(lam) == f(lam) ** t


def test_compose_examples():
    f = Poly(H, [0, 0, I])
    assert f.compose(f) == Poly(H, [0, 0, 0, 0, -I])
    assert f.compose(Poly.x(H)) == f


def test_octonion_compose_of_doubling_example():
    l = O.basis_element("l")
    il = O.basis_element("il")
    kl = O.basis_element("kl")
    i, j, k = (O.basis_element(s) for s in "ijk")
    f = Poly(O, [l - kl, O.one() - il, l])
    ff = f.compose(f)
    # frozen from two independent expansions of the doubling product
    expected = Poly(
        O,
        [
            i + j - 2 * kl,
            -2 - 2 * k - 2 * il,
            -i - l,
            O.element(-2),
            -l,
        ],
    )
    assert ff == expected
    assert ff(j) == 4 * i + j


def test_octonion_horner_forms_agree():
    """O[x] is alternative, so Horner's rule holds there for compose and residues.

    compose against (...(c_n*g + c_(n-1))*g + ...)*g + c_0 built from Poly
    operations, and `_residue` against the remainder of f(a*x + b) by the
    central x^2 - T*x + N.
    """
    rng = random.Random(67)
    for _ in range(30):
        f = rand_poly(rng, O, 3, den=3)
        g = rand_poly(rng, O, 2, den=3)
        horner = Poly(O)
        for c in reversed(f.coeffs):
            horner = horner * g + c
        assert f.compose(g) == horner
        a, b = rand_oct(rng, O, den=3), rand_oct(rng, O, den=3)
        T, N = Fraction(rng.randint(-9, 9), 2), Fraction(rng.randint(-9, 9), 3)
        _, (low, high) = divmod_monic(f.compose(Poly(O, [b, a])).coeffs, [N, -T, 1])
        # the residue map takes and gives numerator triples (a, b, den), and
        # takes the modulus as the numerators of T and N over one denominator
        d, dc, pad = lcm(a.den, b.den), lcm(T.denominator, N.denominator), [0] * 7
        u = [v * (d // a.den) for v in a.nums], [v * (d // b.den) for v in b.nums], d
        A, B, den = f._residue(u, ([int(T * dc)] + pad, [int(N * dc)] + pad, dc))
        assert gcd(den, *A, *B) == 1
        assert (O.ELEMENT(O, A, den), O.ELEMENT(O, B, den)) == (high, low)


# two with table den > 1 (3 and 2), so a residue's scalar products are scaled by it
RESIDUE_SPECS = [H, QuatSpec.standard(F5), O, parse_algebra("quat:2,1/3@Q"), parse_algebra("oct:1/2,-1,3@Q")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RESIDUE_SPECS), st.integers(0, 3), st.integers(0, 2**32))
def test_reduction_and_the_first_composite_value_are_f_at_lam(spec, degree, seed):
    """With (A, B) = f.reduction(trace, norm) of lam, A*lam + B is f(lam), and
    so is the first value of `composite_values`: both start from the residue of x."""
    rng = random.Random(seed)
    draw = rand_oct if isinstance(spec, OctSpec) else rand_quat
    f, lam = rand_poly(rng, spec, degree, den=3), draw(rng, spec, den=2)
    A, B = f.reduction(lam.trace(), lam.norm())
    assert A * lam + B == f(lam) == next(f.composite_values(lam))


@pytest.mark.parametrize("spec", RESIDUE_SPECS, ids=str)
def test_eval_values_is_the_stream_of_eval_iterate(spec):
    rng = random.Random(45)
    draw = rand_oct if isinstance(spec, OctSpec) else rand_quat
    for degree in (1, 2):
        f, lam = rand_poly(rng, spec, degree, den=2), draw(rng, spec)
        assert list(islice(f.eval_values(lam), 5)) == [f.eval_iterate(lam, k) for k in range(1, 6)]


def test_reduction_takes_a_central_modulus_only():
    """x^2 - T*x + N is central only for T and N in the ground field; reduction
    modulo it is a homomorphism only then, so another T or N is refused."""
    f = Poly(H, [1, 0, 1])
    for trace, norm in ((I, 1), (0, I)):
        with pytest.raises(TypeError, match="^cannot interpret <i in quat:-1,-1@Q> as a scalar$"):
            f.reduction(trace, norm)
    # modulo x^2 - 2x + 1, x^2 + 1 = 2x: ground-field scalars and rationals pass
    assert f.reduction(QQ.scalar(2), Fraction(1)) == (H.coerce(2), H.zero())


def test_compose_iterate_examples():
    f = Poly(H, [0, 0, I])
    assert f.compose_iterate(1) == f
    assert f.compose_iterate(2) == Poly(H, [0, 0, 0, 0, -I])
    with pytest.raises(ValueError):
        f.compose_iterate(0)


def test_compose_is_not_power_associative():
    # witness: f = i x^2 + (1 + j)
    f = Poly(H, [1 + J, 0, I])
    lhs = f.compose_iterate(3)
    rhs = f.compose_iterate(2).compose(f)
    assert lhs != rhs
    # ...but special pairs can collapse: a = i, b = j gives equality because
    # (i x^2 + j)^2 is central
    g = Poly(H, [J, 0, I])
    assert g.compose_iterate(3) == g.compose_iterate(2).compose(g)


def test_eval_iterate_differs_from_compose_then_eval():
    f = Poly(H, [0, 0, I])
    lam = J + 1
    assert f.eval_iterate(lam, 2) == -4 * I
    assert f.compose_iterate(2)(lam) == 4 * I
    assert f.eval_iterate(lam, 1) == f(lam)
    with pytest.raises(ValueError):
        f.eval_iterate(lam, 0)


def test_eval_iterate_two_cycle():
    f = Poly(H, [I, 0, 1])  # x^2 + i
    assert f.eval_iterate(-I, 2) == -I


def test_eval_iterate_is_bounded_by_its_work():
    # 2, 5, 26, 677, ...: the height doubles at every step, so step 40 would
    # hold about 2^40 bits; the height budget stops the loop at step 16
    with pytest.raises(DegreeCapError) as err:
        Poly(H, [1, 0, 1]).eval_iterate(2, 40)
    assert str(err.value).startswith("step 16 exceeds the budget: degree 2 times")


def test_right_division_examples():
    g = Poly(H, [1 + K, I, 1])
    q, r = g.divmod_linear(-J)
    assert r.is_zero
    assert q * (Poly.x(H) + J) == g
    lin = Poly.x(H) - I
    q, r = lin.divmod_linear(I)
    assert q == Poly.constant(H, 1)
    assert r.is_zero


@given(polys, quats)
def test_right_division_remainder_is_evaluation(f, lam):
    q, r = f.divmod_linear(lam)
    assert r == f(lam)
    assert q * (Poly.x(H) - lam) + r == f


@settings(max_examples=30)
@given(polys, st.lists(quats, min_size=0, max_size=3), st.data())
def test_divmod_monic_is_right_division_by_a_monic_divisor(q, low, data):
    """a = q*b + r with b monic and deg r < deg b comes back as (q, r), the
    remainder padded with zero quaternions, which have no truth value."""
    b = Poly(H, low + [H.one()])
    r = data.draw(st.lists(quats, min_size=len(low), max_size=len(low)))
    a = q * b + Poly(H, r)
    quotient, rest = divmod_monic(list(a.coeffs), list(b.coeffs))
    assert Poly(H, quotient) == q
    assert Poly(H, rest) == Poly(H, r)


def test_divmod_monic_zero_remainders():
    g = Poly(H, [1 + K, I, 1])  # right-divisible by x + j
    q, r = divmod_monic(g.coeffs, [J, H.one()])
    assert len(r) == 1 and r[0].is_zero
    assert Poly(H, q) * (Poly.x(H) + J) == g
    # (y - 3)^2 (y^2 + y + 5) over the integers, by a quadratic and a linear divisor
    assert divmod_monic([45, -21, 8, -5, 1], [5, 1, 1]) == ([9, -6, 1], [0, 0])
    assert divmod_monic([45, -21, 8, -5, 1], [-3, 1]) == ([-15, 2, -2, 1], [0])
    assert divmod_monic([7], [-3, 1]) == ([], [7])


def test_right_division_unsupported_over_octonions():
    f = Poly(O, [0, 1])
    for call, what in ((lambda: f.divmod_linear(O.one()), "right division"),
                       (f.conj_coeffs, "coefficient conjugation")):
        with pytest.raises(UnsupportedAlgebraError, match=f"^{what} needs an associative algebra$"):
            call()


def test_right_division_and_conjugation_over_the_ground_field():
    # the ground field is associative: the companion over Q divides like any
    # polynomial, and the involution fixes its coefficients
    c = companion(Poly(H, [1 + K, I, 1]))
    for lam in (1, Fraction(-2, 3)):
        q, r = c.divmod_linear(lam)
        assert q * (Poly.x(QQ) - lam) + r == c
        assert r == c(lam)
    assert c.conj_coeffs() == c


def test_factor_theorem_both_ways():
    rng = random.Random(5)
    for _ in range(100):
        lam = rand_quat(rng, H)
        q = rand_poly(rng, H, rng.randint(0, 2))
        g = q * (Poly.x(H) - lam)
        assert g(lam).is_zero
        _, r = g.divmod_linear(lam)
        assert r.is_zero


@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@given(polys, polys)
def test_degree_law_for_products(f, g):
    if f.is_zero or g.is_zero:
        return
    assert (f * g).degree == f.degree + g.degree  # division algebra: no drop


def test_composition_degree_law():
    rng = random.Random(31)
    for _ in range(50):
        f = rand_poly(rng, H, rng.randint(1, 3))
        g = rand_poly(rng, H, rng.randint(1, 3))
        assert f.compose(g).degree == f.degree * g.degree


def test_product_evaluation_with_commuting_right_factor():
    # h = f*g satisfies h(lam) = f(lam)*g(lam) whenever g(lam) commutes
    # with lam; g and lam drawn from a commutative subfield, f arbitrary
    rng = random.Random(17)
    for _ in range(200):
        w, sample = rand_subfield_pair(rng, H)
        g = Poly(H, [sample() for _ in range(rng.randint(1, 3))])
        lam = sample()
        f = rand_poly(rng, H, rng.randint(0, 3))
        assert g(lam).commutes(lam)
        assert (f * g)(lam) == f(lam) * g(lam)


def test_compose_eval_agreement_under_commutation():
    # with every f*t(lam) commuting with lam, the two iterations agree
    rng = random.Random(29)
    for _ in range(100):
        w, sample = rand_subfield_pair(rng, H)
        f = Poly(H, [sample() for _ in range(3)])
        lam = sample()
        for n in range(1, 5):
            assert f.compose_iterate(n)(lam) == f.eval_iterate(lam, n)


@given(st.lists(st.tuples(st.integers(1, 99), st.integers(1, 12)), min_size=1, max_size=16))
def test_column_height_bounds_the_element_height(pairs):
    """Over the common denominator a column height is at least every element's
    height, and equal to the largest when the coefficients share their denominator."""
    f = Poly(H, [Fraction(a, b) * H.basis_element(sym) for (a, b), sym in zip(pairs, "ijk" * 6)])
    largest = max(column_height((c.nums,), c.den) for c in f.coeffs)
    assert column_height(f.cols, f.den) >= largest
    if len({c.den for c in f.coeffs}) == 1:
        assert column_height(f.cols, f.den) == largest


def test_octonion_polynomials_over_quadratic_field():
    spec = OctSpec.standard(FieldSpec(5))
    s5 = spec.field.sqrt_gen()
    f = Poly(spec, [s5, 1])
    assert f(spec.one()) == spec.coerce(s5 + 1)


def test_render_canonical_form():
    f = Poly(H, [1 + K, 1 + I, 1])
    assert f.render() == "(1)*x^2 + (1 + i)*x + (1 + k)"
    assert Poly(H).render() == "(0)"
    assert Poly(H, [0, 0, -I]).render() == "(-i)*x^2"
