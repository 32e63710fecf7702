"""Integer structure-constant arithmetic shared by scalars, quaternions and
octonions.

An element is stored as a tuple of integer numerators over one positive
denominator, in lowest terms.  The numerators are its coordinates over the
Q-basis {1, sqrt d} x {1, i, j, k} (x {1, l} for octonions; just {1, sqrt d}
for a scalar of the ground field), interleaved: ground-field coordinate P
sits at position P*width, followed by its sqrt(d) part when the ground field
is Q(sqrt d) (width 2 instead of 1).

Every product goes through one sparse table of integer structure constants
per algebra, derived once by the Cayley-Dickson doubling rule: its rows index
the operands' coordinates, its `dim` counts the product's.  Norms and the
companion conj(g)*g are products of a second table, `Table.norm_form`, the
entries that land on the ground field (dim = width).  Each table has two
products, straight-line code compiled on first call, the only code that
applies the structure constants, to coordinates and packed columns alike:
`Table.mul` from the rows, and `Table.square` from the square's rows, where
the two entry lists of each unordered pair are merged by target, so the
terms of anticommuting units, which cancel, are never formed.  A `Poly` is
the coordinate columns of its coefficients over one denominator, and its
products convolve those columns: short operands by the schoolbook
convolution, one `mul` per pair of coefficients, long ones by packing each
column into one integer (Kronecker substitution by `pack` and `unpack`, the
only code that knows the packing format), one `mul` or `square` of the
packed columns, `Table._product` the one place that decides between the
two.  Composition f(g) (`Table.compose`) adds its terms c_i * g^i in one
Horner loop of schoolbook products into one sum, on the columns or on g's
powers packed at one slot that provably holds each coefficient of the
composite: there a packed power is a polynomial of one coefficient, whose
coordinates are the packed integers, and the composite is unpacked once.

`PATHS`, always on, counts each path where it is chosen, by (line, path):
"poly_mul" and "compose powers" "schoolbook"/"packed", "compose" "packed"/
"columns", "squarefree part" "squarefree"/"repeated", "local prime" p, and
"numeric" "evaluations"/"approximants" (in `solver` and `aberth`).

Text prints from the same integers by one rule, `Element.text`, for a
scalar, an element or a row of a `Poly`'s columns, over Q and Q(sqrt d)
alike: no element, no Fraction.

The element classes share `Element`'s operators, and each holds those named
in `OPERATORS` in its own namespace, put there by `Element.__init_subclass__`
when the class is created: per-class instrumentation wraps them there.  Each
binary operator of an element or a `Poly` is `lifted`: its class's `_lift`
coerces the operand (an element's by `Spec.coerce`, the one spec check and
its one error) or declines its type, and the operator returns NotImplemented.
An element's `==` reads `_lift` too, and answers False where coerce raises.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from functools import partial, update_wrapper
from itertools import chain, count, product, repeat
from math import gcd, lcm
from typing import TYPE_CHECKING

from .errors import DegreeCapError, FieldMismatchError, SpecMismatchError, SplitAlgebraError

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .polynomials import Poly
    from .scalars import Scalar

RationalLike = (int, Fraction)
PATHS: Counter = Counter()  # the paths taken, by (line, path): see the module docstring

# Exact work is bounded by bit height.  The step of an octonion quadratic that
# reaches 64857 bits takes 0.31 s, the next one 1.4 s.
HEIGHT_BUDGET = 2**16

# Steps of a degree-1 map one repeated evaluation, orbit, search or composition
# may take, and the degree of a composite; a degree-d map gets MAX_STEPS // d.
# A quadratic step that keeps its height costs about 75 microseconds, a
# degree-256 one 6.6 ms.
MAX_STEPS = 4096

# The work of a composite f(g): deg(f) products of operands of about
# deg(f) * deg(g) coefficients of deg(f) * H bits, in each nonzero coordinate
# column of g, H its column height (`column_height`).  It counts bits, so
# sparse low-height composites pass it, and their degree stops them.
# Measured: the README's quadratic reaches 8.6e6 at n = 10 (0.35 s) and 3.4e7
# at n = 11 (2.8-3.3 s, nearly all of it the last packed square); of 4088
# random compose calls (degree 1-16, heights up to 7000 bits, n up to 13, all
# five test algebras) none took more than 1.1 s.
COMPOSE_BITS = 10_000_000

# Where Table._product packs columns (Kronecker substitution): operands of at
# least KRONECKER_MIN coefficients and, for two different operands, at least
# one coefficient per KRONECKER_BITS bits of slot or KRONECKER_WIDE of them,
# the slot read from each operand's width profile (`_profile`).  Table.compose
# packs its whole sum where its top product is dense, at any length: it saves
# an unpacking and the schoolbook products by the coefficients of f besides.
# Measured on quaternion columns (best of 9, a shared 2-core host), the packed
# product of two different operands is 0.3-1.1x as fast as the schoolbook one
# at 2-4 coefficients, 1.1-2.2x at 6-8 and 2-19x at 16-64 for coefficients of
# up to 64 bits; for 500 to 20000 bits it breaks even at 12-20 and wins
# 0.9-1.8x at 24-32.  A packed square is 1.2-2x faster again (2-4x at 500+).
KRONECKER_MIN = 6
KRONECKER_BITS = 64
KRONECKER_WIDE = 24


def column_height(cols, den: int) -> int:
    """Largest bit length among den and the numerators of coordinate columns over it."""
    return max(den, *map(abs, chain.from_iterable(cols)), 0).bit_length()


def _at_least_one(**bounds: int) -> None:
    """ValueError for the first bound below 1, by its name."""
    for name, value in bounds.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1")


def _bounded(f: Poly, step, u) -> Iterator:
    """Yield step(u), step(step(u)), ..., where one step applies f once.

    A step costs about deg(f) products of numbers as long as u's, and makes
    the height of u at most deg(f) times larger, up to the height of f's
    coefficients.  So before step k, with deg(f) counted as at least 1,
    raise DegreeCapError when deg(f) times k or the degree D of u exceeds
    MAX_STEPS, deg(f) times the height H of u exceeds HEIGHT_BUDGET, or deg(f)
    times the work of one product exceeds COMPOSE_BITS: u's nonzero columns
    times deg(f) * D coefficients times deg(f) * H bits.  H is `column_height`:
    of an element's numerators, a composite's (a Poly) columns, or a residue
    (a, b, den) (D = 0, no work), there of a/den and b/den in lowest terms.
    """
    growth = max(f.degree, 1)
    for k in count(1):
        degree = columns = 0
        if isinstance(u, tuple):
            a, b, den = u
            bits = column_height((a, b), den)
            if growth * bits > HEIGHT_BUDGET:  # it bounds each part's: measure them
                bits = max(column_height([[v // g for v in p]], den // g)
                           for p in (a, b) for g in (gcd(den, *p),))
        elif isinstance(u, Element):
            bits = column_height((u.nums,), u.den)
        else:
            bits, degree, columns = column_height(u.cols, u.den), u.degree, sum(map(any, u.cols))
        for size, unit, budget in (
            (k, "steps", MAX_STEPS),
            (degree, "degrees", MAX_STEPS),
            (bits, "bits", HEIGHT_BUDGET),
            (columns * growth * degree * growth * bits, "bits of work", COMPOSE_BITS),
        ):
            if growth * size > budget:
                raise DegreeCapError(
                    f"step {k} exceeds the budget: degree {growth} times "
                    f"{size} {unit} is over {budget}"
                )
        u = step(u)
        yield u


def _basis(p: int, q: int, k: int):
    """e_p * e_q = sign * g_1**(2*a_1) * ... * g_k**(2*a_k) * e_r for the basis
    e_(m + h*2**(k-1)) = e_m g_k**h of k doublings of the ground field, by the
    Cayley-Dickson rule (u + v g)(s + t g) = u s + g**2 conj(t) v + (t u +
    v conj(s)) g and conj(e_m) = -e_m for m != 0: returns (r, sign, (a_1, ...))."""
    if not k:
        return 0, 1, ()
    half = 1 << (k - 1)
    (h1, m1), (h2, m2) = divmod(p, half), divmod(q, half)
    conj = -1 if h1 and m2 else 1  # conj(s) or conj(t) appears when v does
    if not h2:
        r, sign, exps = _basis(m1, m2, k - 1)
        return r + h1 * half, conj * sign, exps + (0,)
    r, sign, exps = _basis(m2, m1, k - 1)
    return r + (1 - h1) * half, conj * sign, exps + (h1,)


class Table:
    """Structure constants of one product over Q: (x*y)[r] = sum c*x[p]*y[q] / den.

    `rows[p]` lists the (q, r, c) with integer c for operand coordinate p.
    `dim` counts a product's coordinates r.  `Table(field, *gens)` is the
    product of the ground field (no generators), a quaternion algebra (alpha,
    beta) or an octonion algebra (alpha, beta, gamma); its `norm_form`, a
    second table of dim = width, is the ground-field part of conj(x)*y (and
    has no norm_form).

    `mul(x, y)` gives the numerators of x*y over den times the denominators
    of x and y.  It is straight-line code compiled from the rows on the first
    product (`_compile_mul`): one block per row, entered only when x[p] is
    nonzero, so sparse operands cost less, and one integer product per
    column pair.  `square(x, x)` equals mul(x, x), compiled from
    `square_rows`, where (p, q) and (q, p) multiply the same two columns: one
    entry per unordered pair p <= q and target r, in row p, their constants
    summed and the zero sums dropped.  Both serve coordinates and packed
    columns alike.
    """

    __slots__ = (
        "width", "dim", "den", "rows", "square_rows", "spread_bits", "norm_form", "mul", "square"
    )

    def __init__(self, field, *gens) -> None:
        d, width = field.d, 1 if field.d is None else 2
        n = 1 << len(gens)
        # Q-coordinates of sqrt(d)^t times a monomial in the generators,
        # keyed by (exponents, t); t = s1 + s2 for the sqrt(d) parts of a pair
        values: dict[tuple, tuple[Fraction, ...]] = {}
        for exps in product((0, 1), repeat=len(gens)):
            c = None  # the empty product, 1
            for g, e in zip(gens, exps):
                if e:
                    c = g if c is None else c * g
            a, b = (1, 0) if c is None else (c.a, c.b)
            values[exps, 0] = (a, b)[:width]
            if width == 2:
                values[exps, 1] = (d * b, a)
                values[exps, 2] = (d * a, d * b)
        den = lcm(*(v.denominator for vs in values.values() for v in vs))
        ints = {key: [int(v * den) for v in vs] for key, vs in values.items()}
        rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n * width)]
        for p in range(n):
            for q in range(n):
                r, sign, exps = _basis(p, q, len(gens))
                for s1 in range(width):
                    for s2 in range(width):
                        for s, v in enumerate(ints[exps, s1 + s2]):
                            if v:
                                rows[p * width + s1].append(
                                    (q * width + s2, r * width + s, sign * v)
                                )
        # conj(x)*y on the ground field: the entries that land there, with the
        # conjugate's sign on p >= width (4 of the 16 for quaternions over Q)
        norm_form = object.__new__(Table)
        norm_form._derive(width, width, den, [
            [(q, r, -c if p >= width else c) for q, r, c in row if r < width]
            for p, row in enumerate(rows)
        ])
        self._derive(width, n * width, den, rows, norm_form)

    def _derive(self, width: int, dim: int, den: int, rows, norm_form=None) -> None:
        """Set the table from its rows: the square's rows and the slot's spread."""
        self.width, self.dim, self.den, self.norm_form = width, dim, den, norm_form
        self.rows = tuple(tuple(row) for row in rows)
        # (p, q) and (q, p) multiply the same two columns of a square, so their
        # constants add up by r, in row min(p, q); those of anticommuting units
        # cancel
        square: list[Counter] = [Counter() for _ in rows]
        for p, row in enumerate(rows):
            for q, r, c in row:
                square[min(p, q)][max(p, q), r] += c
        self.square_rows = tuple(tuple((q, r, c) for (q, r), c in s.items() if c) for s in square)
        # bits of the largest sum of |c| over the entries that land on one r
        spread = [0] * dim
        for row in rows:
            for _, r, c in row:
                spread[r] += abs(c)
        self.spread_bits = max(spread).bit_length()
        self.mul, self.square = self._first_mul, self._first_square

    def _first_mul(self, x, y) -> list[int]:
        """The first product: compile `mul` from the rows, then take it."""
        self.mul = _compile_mul(self.rows, self.dim)
        return self.mul(x, y)

    def _first_square(self, x, y) -> list[int]:
        """The first square: compile `square` from the square's rows, then take it."""
        self.square = _compile_mul(self.square_rows, self.dim)
        return self.square(x, y)

    def poly_mul(self, F, G) -> list[list[int]]:
        """Coordinate columns of the product of two polynomials.

        F[p][i] is coordinate p of the i-th coefficient; the coefficients of
        the product are the convolution, with coefficient products taken in
        written order, over den times the denominators of F and G: `dim`
        columns, so `norm_form.poly_mul(F, F)` is the ground-field columns of
        conj(F)*F.

        The operands' width profiles (`_profile`) go to `_product`, the one
        place that decides: the packed product replaces the schoolbook
        convolution where it measured faster, that is, both operands have at
        least KRONECKER_MIN coefficients (shorter ones are not measured), F is
        even by its profile, and unless G is F, G is even and the shorter
        operand has a coefficient per KRONECKER_BITS bits of slot or
        KRONECKER_WIDE of them.  (A square needs about half as many packed
        products; with few wide coefficients, the schoolbook terms are already
        bignum products.)
        """
        profile = _profile(F)
        return self._product(F, G, profile, profile if G is F else _profile(G), "poly_mul")

    def _product(self, F, G, profile_f, profile_g, stage: str) -> list[list[int]]:
        """poly_mul of F and G, whose width profiles are measured already; its path counts under stage."""
        short = min(len(F[0]), len(G[0]))
        slot = self._slot_bits(profile_f[0], profile_g[0], short)
        pays = G is F or profile_g[1] and short >= min(slot // KRONECKER_BITS, KRONECKER_WIDE)
        if short >= KRONECKER_MIN and profile_f[1] and pays:
            PATHS[stage, "packed"] += 1
            return self._packed_mul(F, G, slot)
        PATHS[stage, "schoolbook"] += 1
        return self.schoolbook_mul(F, G)

    def _slot_bits(self, bits_f: int, bits_g: int, short: int) -> int:
        """Bits that hold any coefficient of F * G, sign included, for |F| < 2**bits_f
        and |G| < 2**bits_g: each sums at most short = min(len F, len G) products
        per table entry landing on its r, whose |c| sum below 2**spread_bits."""
        return bits_f + bits_g + short.bit_length() + self.spread_bits + 1

    def schoolbook_mul(self, F, G, out=None) -> list[list[int]]:
        """poly_mul by the direct convolution, added into the columns `out` when
        given (long enough to hold them): one `mul` per pair of nonzero
        coefficients, so that the compiled product stays the one code that
        applies the structure constants; it skips the row of each zero
        coordinate of F's coefficient."""
        if out is None:
            size = len(F[0]) + len(G[0]) - 1
            out = [[0] * size for _ in range(self.dim)]
        mul = self.mul
        coeffs_g = [(k, b) for k, b in enumerate(zip(*G)) if any(b)]
        for i, a in enumerate(zip(*F)):
            if any(a):
                for k, b in coeffs_g:
                    for o, v in zip(out, mul(a, b)):
                        o[i + k] += v
        return out

    def _packed_mul(self, F, G, slot: int) -> list[list[int]]:
        """poly_mul by Kronecker substitution (Harvey 2009, J. Symb. Comput. 44),
        at a slot of s bits that holds every coefficient.

        Each column becomes one integer, sum F[p][i] * 2**(s*i), so that the
        element product `mul` of the packed columns, one integer product per
        column pair of the table, holds a whole convolution.  The slot is
        rounded up to whole bytes, so that `pack` and `unpack` fill and read it
        in linear time.  When F is G, `square` multiplies each unordered column
        pair once.
        """
        size = len(F[0]) + len(G[0]) - 1
        nbytes = (slot + 7) // 8
        packed_f = [pack(col, nbytes) for col in F]
        packed_g = packed_f if G is F else [pack(col, nbytes) for col in G]
        product = self.square if G is F else self.mul
        return [unpack(v, nbytes, size) for v in product(packed_f, packed_g)]

    def compose(self, F, G, scale: int) -> list[list[int]]:
        """Numerator columns of f(g) = sum c_i * (g^i) over den(f) * scale**m.

        F holds the columns of c_0, ..., c_m (m >= 1, c_m nonzero), G those of
        g, and scale = den(g) * den.  With G^i = G^(i-1) * G, the table's
        left-nested power, c_i * (g^i) is c_i * G^i over den(f) * scale**i,
        so the sum is taken by Horner's rule in the scale: (c_0 * scale +
        c_1 * G) * scale + c_2 * G^2, and so on.

        G and each power below G^m are measured once (`_profile`) and
        multiplied by poly_mul's rule, each at its own slot.  One loop adds the
        terms, each by one schoolbook product of c_i into the sum.  When G is
        even and G^(m-1) * G dense by that rule (at any length), G and the
        powers with a nonzero c_i are packed at one slot, G^m is formed there
        by `mul` (`square` at m = 2), and each packed power is a polynomial of
        one coefficient, whose coordinates are the packed integers: the sum
        holds one integer per coordinate and is unpacked once, exactly, since
        packing is linear and `_compose_bits` bounds each coefficient within
        the signed slot.  Otherwise G^m takes the product rule too, and the
        sum is kept on the columns: for an uneven G, or few wide coefficients,
        the packed sum measured slower.
        """
        m, size, short = len(F[0]) - 1, (len(F[0]) - 1) * (len(G[0]) - 1) + 1, len(G[0])
        coeffs = list(zip(*F))
        powers, profiles = [G], [_profile(G)]
        while len(powers) < m - 1:
            powers.append(self._product(powers[-1], G, profiles[-1], profiles[0], "compose powers"))
            profiles.append(_profile(powers[-1]))
        slot = self._slot_bits(profiles[-1][0], profiles[0][0], short)
        packs = m > 1 and profiles[0][1] and short >= min(slot // KRONECKER_BITS, KRONECKER_WIDE)
        if packs:
            PATHS["compose", "packed"] += 1
            bits = [b for b, _ in profiles] + [slot - 1]
            nbytes = (self._compose_bits(coeffs, bits, scale) + 7) // 8
            packed = [  # G^i for its term, and G^(m-1) and G for G^m
                [pack(col, nbytes) for col in P] if any(coeffs[i]) or i in (1, m - 1) else ()
                for i, P in enumerate(powers, 1)
            ]
            packed.append((self.square if m == 2 else self.mul)(packed[-1], packed[0]))
            # a packed power is a polynomial of one coefficient
            powers = [[[v] for v in P] for P in packed]
            out = [[v] for v in coeffs[0]]
        else:
            if m > 1:
                powers.append(self._product(powers[-1], G, profiles[-1], profiles[0], "compose powers"))
            PATHS["compose", "columns"] += 1
            out = [[v] + [0] * (size - 1) for v in coeffs[0]]
        k = 0  # the scale factors by which the sum so far must be multiplied first
        for c, P in zip(coeffs[1:], powers):
            k += 1
            if any(c):
                if scale != 1:
                    out = [[v * scale**k for v in col] for col in out]
                self.schoolbook_mul([[v] for v in c], P, out=out)
                k = 0
        return [unpack(v, nbytes, size) for v, in out] if packs else out

    def _compose_bits(self, coeffs, bits, scale) -> int:
        """Bits that hold any coefficient of compose's sum, sign included.

        A term c_i * scale**(m - i) * G^i has coefficients below 2**(bits(c_i) +
        bits(scale**(m - i) - 1) + spread_bits + bits[i - 1]), where bits[i - 1]
        bounds G^i (for G^m, the slot of G^(m-1) and G less its sign bit), and
        the term c_0 below 2**(bits(c_0) + bits(scale**m - 1)); the sum of the
        nonzero terms stays below their number times the largest.
        """
        m = len(coeffs) - 1
        terms = [
            max(map(int.bit_length, c)) + (scale ** (m - i) - 1).bit_length()
            + (i and self.spread_bits + bits[i - 1])
            for i, c in enumerate(coeffs) if any(c)
        ]
        return max(terms, default=0) + len(terms).bit_length() + 1


def _compile_mul(rows, dim: int):
    """The product of a table as straight-line code: mul(x, y) unpacks the
    operands into locals x0, y0, ..., and each row p is one `if xp:` block,
    so a zero x[p] skips its row, of one product xp * yq per column pair,
    added times c into each o{r} it lands on (c = +-1 folds into the sign):
    a pair of packed columns that lands on two r is multiplied once.  The
    other constants are bound by name, as the arguments of a factory: one of
    thousands of bits would pass CPython's limit on the digits of an int literal."""
    names: dict[int, str] = {}  # each constant other than +-1, by value
    outs = [f"o{r}" for r in range(dim)]
    body = [
        "".join(f"x{p}, " for p in range(len(rows))) + "= x",
        "".join(f"y{q}, " for q in range(len(rows))) + "= y",
        " = ".join(outs) + " = 0",
    ]
    for p, row in enumerate(rows):
        if row:
            body.append(f"if x{p}:")
        targets: dict[int, list[tuple[int, int]]] = {}
        for q, r, c in row:
            targets.setdefault(q, []).append((r, c))
        for q, rcs in targets.items():
            term = f"x{p} * y{q}"
            if len(rcs) > 1:
                body.append(f"    t = {term}")
                term = "t"
            for r, c in rcs:
                if c in (1, -1):
                    body.append(f"    o{r} {'+' if c > 0 else '-'}= {term}")
                else:
                    name = names.setdefault(c, f"c{len(names)}")
                    body.append(f"    o{r} += {name} * {term}")
    body.append(f"return [{', '.join(outs)}]")
    source = f"def bind({', '.join(names.values())}):\n    def mul(x, y):\n"
    source += "".join(f"        {line}\n" for line in body) + "    return mul\n"
    scope: dict = {}
    exec(compile(source, "<Table.mul>", "exec"), scope)
    return scope["bind"](*names)


def _profile(F) -> tuple[int, bool]:
    """The width profile of columns F, from one pass over its coefficients:
    the bit length of the largest |F[p][i]|, and whether the coefficients are
    even enough for packing.  A packed slot is as wide as the widest, so
    packing pays only when twice their summed widths reach their number
    times that width."""
    widths = [max(map(int.bit_length, coeff)) for coeff in zip(*F)]
    bits = max(widths, default=0)
    return bits, 2 * sum(widths) >= len(widths) * bits


def pack(col, nbytes: int) -> int:
    """sum col[i] * 256**(nbytes*i), for |col[i]| < 256**nbytes / 2, in linear
    time: each digit fills an unsigned slot of nbytes bytes, biased by half
    the slot, and the biases are taken back at once."""
    half = 1 << (8 * nbytes - 1)
    data = b"".join([(v + half).to_bytes(nbytes, "little") for v in col])
    biases = half.to_bytes(nbytes, "little") * len(col)
    return int.from_bytes(data, "little") - int.from_bytes(biases, "little")


def unpack(v: int, nbytes: int, size: int) -> list[int]:
    """The `size` digits of v in base 256**nbytes, which must hold v, each in
    [-slot/2, slot/2) for the slot 256**nbytes, in linear time."""
    half = 1 << (8 * nbytes - 1)
    biases = half.to_bytes(nbytes, "little") * size
    data = (v + int.from_bytes(biases, "little")).to_bytes(nbytes * size, "little")
    return [int.from_bytes(data[k : k + nbytes], "little") - half for k in range(0, len(data), nbytes)]


def power(x, n: int, one, what: str):
    """x**n by repeated squaring, `one` for n = 0: a product of powers of one
    element, which alternativity makes agree in every nesting (Artin)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"{what} powers take a nonnegative integer exponent")
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        if n := n >> 1:
            x = x * x
    return one if out is None else out


def field_inverse(d: int | None, n) -> tuple[list[int], int]:
    """1/(n0 + n1*sqrt d) from its numerators n = (n0,) over Q or (n0, n1), over a
    denominator >= 0, 0 for zero only: the field conjugate over the field norm
    n0**2 - d*n1**2 (1 over n0 over Q), a negative norm's sign moved up.  It
    inverts N(x) in `left_quotient`, the one inverse rule, and a scalar x itself."""
    conj, norm = ([1], n[0]) if d is None else ([n[0], -n[1]], n[0] * n[0] - d * n[1] * n[1])
    return (conj, norm) if norm >= 0 else ([-v for v in conj], -norm)


def left_quotient(spec, x, y) -> tuple[list[int], int]:
    """x**-1 * y = conj(x)*y / N(x) for numerators x, y of spec's elements, read over 1,
    as numerators over a positive integer, unreduced: den(table) cancels, and the field's
    table (of den 1) multiplies in `field_inverse` of N(x).  A scalar x (a field is its
    own ground field) is inverted itself, not through N(x) = x*x.  SplitAlgebraError if
    N(x) = 0."""
    table, w = spec.table, spec.table.width
    scalar = table.dim == w
    conj, den = field_inverse(spec.field.d, x if scalar else table.norm_form.mul(x, x))
    if not den:
        raise SplitAlgebraError()
    if scalar:
        return table.mul(y, conj), den
    prod, mul = table.mul(x[:w] + tuple(-v for v in x[w:]), y), spec.field.table.mul
    return [v for k in range(0, len(prod), w) for v in mul(prod[k : k + w], conj)], den


def lifted(op):
    """op(self, o) on the operand as `self._lift` takes it; NotImplemented where it declines."""
    def apply(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else op(self, o)
    return update_wrapper(apply, op)


# The operators each element class holds in its own namespace (`Element.__init_subclass__`).
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__pow__", "__eq__", "inv")


class Element:
    """Arithmetic shared by scalars, quaternions and octonions.

    Subclasses name their ground-field basis (`BASIS`), the other types they
    take as operands (`LIFTS`) and the error of an operand of another spec
    (`MISMATCH`); their spec, a `Spec`, supplies `field`, `table`, `coerce`
    and `one`.  `_lift`, the operand rule of every `lifted` operator, takes
    its own type and `LIFTS` through `spec.coerce`, and declines the rest.
    Each subclass holds every name of `OPERATORS` in its own namespace: the
    one it defines, else the one it inherits, put there when it is created.
    """

    __slots__ = ("spec", "nums", "den")

    BASIS: tuple[str, ...] = ()
    LIFTS: tuple[type, ...] = ()
    MISMATCH: type[Exception] = SpecMismatchError

    def __init__(self, spec, nums, den: int = 1) -> None:
        """Store nums/den (den > 0) in lowest terms."""
        g = gcd(den, *nums)
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in OPERATORS:
            if name not in vars(cls):
                setattr(cls, name, getattr(cls, name))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _scalar(self, k: int) -> Scalar:
        """Ground-field coordinate k."""
        w, field = self.spec.table.width, self.spec.field
        return field.ELEMENT(field, self.nums[w * k : w * k + w], self.den)

    def coords(self) -> tuple[Scalar, ...]:
        return tuple(self._scalar(k) for k in range(len(self.BASIS)))

    def coordinate_texts(self) -> Iterator[str]:
        """Each coordinate's text as its `Scalar` renders, from the numerators over den."""
        w, field = self.spec.table.width, self.spec.field
        for k in range(0, len(self.BASIS) * w, w):
            yield field.ELEMENT.text(field, self.nums[k : k + w], self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_central(self) -> bool:
        return not any(self.nums[self.spec.table.width :])

    def scalar_part(self) -> Scalar:
        return self._scalar(0)

    # -- operands and ring operations -----------------------------------------

    def _lift(self, other):
        if type(other) is type(self):
            if other.spec is self.spec:
                return other
        elif not isinstance(other, self.LIFTS):
            return None
        return self.spec.coerce(other)

    @lifted
    def __add__(self, o):
        s, t = o.den, self.den
        nums = [a * s + b * t for a, b in zip(self.nums, o.nums)]
        return type(self)(self.spec, nums, s * t)

    __radd__ = __add__

    @lifted
    def __sub__(self, o):
        s, t = o.den, self.den
        nums = [a * s - b * t for a, b in zip(self.nums, o.nums)]
        return type(self)(self.spec, nums, s * t)

    @lifted
    def __rsub__(self, o):
        return o - self

    def __neg__(self):
        return type(self)(self.spec, [-v for v in self.nums], self.den)

    @lifted
    def __mul__(self, o):
        table = self.spec.table
        nums = table.mul(self.nums, o.nums)
        return type(self)(self.spec, nums, self.den * o.den * table.den)

    @lifted
    def __rmul__(self, o):
        return o * self

    def __pow__(self, n: int):
        return power(self, n, self.spec.one(), type(self).__name__.lower())

    # -- involution, trace, norm, inverse -------------------------------------

    def conj(self):
        w = self.spec.table.width
        return type(self)(
            self.spec, self.nums[:w] + tuple(-v for v in self.nums[w:]), self.den
        )

    def trace(self) -> Scalar:
        return self.scalar_part() * 2

    def norm(self) -> Scalar:
        form, field = self.spec.table.norm_form, self.spec.field
        return field.ELEMENT(field, form.mul(self.nums, self.nums), self.den * self.den * form.den)

    def inv(self):
        if self.is_zero:
            raise ZeroDivisionError(f"inverse of the zero {type(self).__name__.lower()}")
        nums, den = left_quotient(self.spec, self.nums, (1,) + (0,) * (len(self.nums) - 1))
        return type(self)(self.spec, [v * self.den for v in nums], den)

    @lifted
    def __truediv__(self, o):
        return self * o.inv()

    @lifted
    def __rtruediv__(self, o):
        return o * self.inv()

    # -- predicates -----------------------------------------------------------

    def commutes(self, other) -> bool:
        """Whether x*y = y*x: for a y `_lift` takes, whether their numerators are equal."""
        o = self._lift(other)
        if o is None:  # the other type's product decides, or the product raises
            return (self * other - other * self).is_zero
        mul = self.spec.table.mul
        return mul(self.nums, o.nums) == mul(o.nums, self.nums)

    def in_class(self, trace: Scalar, norm: Scalar) -> bool:
        """Whether z*z - trace*z + norm vanishes exactly."""
        t, n = (self.spec.field.coerce(v) for v in (trace, norm))
        return (self * self - self * t + n).is_zero

    def __eq__(self, other) -> bool:
        try:
            o = self._lift(other)
        except (FieldMismatchError, SpecMismatchError):  # another field or algebra
            return False
        return NotImplemented if o is None else self.nums == o.nums and self.den == o.den

    def __hash__(self) -> int:
        # equal elements hash equal: an element equals its padding into an
        # algebra one level up, and one with a rational value its Fraction
        nums = self.nums
        end = len(nums)
        while end > 1 and not nums[end - 1]:
            end -= 1
        if end == 1:
            return hash(Fraction(nums[0], self.den))
        return hash((self.spec.field, nums[:end], self.den))

    # -- text -----------------------------------------------------------------

    @classmethod
    def text(cls, spec, nums, den: int) -> str:
        """Text of the basis combination nums/den, e.g. "1 + 2*i - j" or "(1/2 + s5)*k".

        One rule over Q and Q(sqrt d): coordinate k is a + b*sqrt(d) (b = 0
        over Q), each part reduced by its own gcd, as str(Fraction) would
        (none over den 1).  Zero coordinates are dropped; all zero prints as
        "0".  The sign folds out of pure-rational and pure-radical
        coordinates, not of mixed ones, which a basis symbol parenthesizes:
        `p/q + r/s*s5` for a scalar, `(p/q + r/s*s5)*k`.  An exact value
        prints in full: CPython's int-to-text limit is lifted for this one
        conversion only, and only when it is hit.
        """
        try:
            return cls._text(spec.field.d, nums, den)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                return cls._text(spec.field.d, nums, den)
            finally:
                sys.set_int_max_str_digits(limit)

    @classmethod
    def _text(cls, d, nums, den: int) -> str:
        ratio = str if den == 1 else partial(_ratio, den)
        paren = len(cls.BASIS) > 1
        parts: list[str] = []
        pairs = zip(nums, repeat(0)) if d is None else zip(nums[::2], nums[1::2])
        for sym, (a, b) in zip(cls.BASIS, pairs):
            if not b:
                if not a:
                    continue
                neg, mag = a < 0, ratio(abs(a))
            else:
                mag = ratio(abs(b))
                mag = f"s{d}" if mag == "1" else f"{mag}*s{d}"
                neg = not a and b < 0
                if a:
                    mag = f"{ratio(a)} {'+' if b > 0 else '-'} {mag}"
                    mag = f"({mag})" if paren else mag
            body = mag if not sym else sym if mag == "1" else f"{mag}*{sym}"
            parts.append((("- " if neg else "+ ") if parts else "-" if neg else "") + body)
        return " ".join(parts) or "0"

    def render(self) -> str:
        return self.text(self.spec, self.nums, self.den)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{self.render()} in {self.spec}>"


def _ratio(den: int, n: int) -> str:
    """n/den in lowest terms: `p/q`, or `p` when den divides n."""
    g = gcd(n, den)
    return f"{n // g}" if g == den else f"{n // g}/{den // g}"


class Spec:
    """What the field, quaternion and octonion specs share.

    A subclass names its element class (`ELEMENT`) and has a `table`, a
    `field`, a `_key`, the parameters it compares and hashes by, and a `sub`,
    the spec one level down whose elements it lifts (a field lifts only
    rationals and has none): `FieldSpec` defines its own, the doubled
    algebras inherit `DoubledSpec`'s.  Specs are immutable.
    """

    __slots__ = ("table",)

    ELEMENT: type[Element]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, *self._key()))

    def coerce(self, value):
        """value as an element of this spec.

        Rationals become the leading coordinate; an element of a spec one
        level down (`sub`) keeps its coordinates, padded with zeros.
        """
        element = self.ELEMENT
        if isinstance(value, element):
            if value.spec is not self and value.spec != self:
                noun = element.__name__.lower()
                raise element.MISMATCH(f"{noun} from {value.spec} used in {self}")
            return value
        if isinstance(value, RationalLike):
            zeros = (0,) * (self.table.dim - 1)
            return element(self, (value.numerator,) + zeros, value.denominator)
        if isinstance(value, element.LIFTS):
            return self._join((value,))
        noun = element.__name__.lower()
        article = "an" if noun[0] in "aeiou" else "a"
        raise TypeError(f"cannot interpret {value!r} as {article} {noun}")

    def _join(self, values):
        """The element whose leading coordinates are those of `values`, in order.

        Each value is an element of `sub` or anything `sub` coerces; the
        remaining coordinates are zero.
        """
        parts = [self.sub.coerce(v) for v in values]
        if len(parts) * self.sub.table.dim > self.table.dim:
            raise TypeError(f"an element of {self} has {self.table.dim // self.sub.table.dim} parts, not {len(parts)}")
        den = lcm(*(p.den for p in parts))
        nums = [v * (den // p.den) for p in parts for v in p.nums]
        return self.ELEMENT(self, nums + [0] * (self.table.dim - len(nums)), den)

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def basis_element(self, sym: str):
        """The basis element named sym ("" for 1); KeyError for an unknown name."""
        try:
            idx = self.ELEMENT.BASIS.index(sym)
        except ValueError:
            raise KeyError(sym) from None
        nums = [0] * self.table.dim
        nums[idx * self.table.width] = 1
        return self.ELEMENT(self, nums)


class DoubledSpec(Spec):
    """An algebra that doubles `sub` by the squares `params` of its new generators:
    `QuatSpec(field, alpha, beta)` and `OctSpec(quat, gamma)`.

    `sub` must be the spec of `ELEMENT.LIFTS[0]`, with one parameter per doubling
    (else TypeError), each a nonzero scalar of `field` (else ValueError(`NONZERO`)).
    `gens` holds every generator square, alpha first, and gives `Table(field, *gens)`;
    a spec compares and hashes by (sub, *params) and prints as `KIND:gens@field`.
    """

    __slots__ = ("field", "sub", "params", "gens")

    KIND: str
    NONZERO: str

    def __init__(self, sub, *params) -> None:
        name, lift = type(self).__name__, self.ELEMENT.LIFTS[0]
        if getattr(sub, "ELEMENT", None) is not lift:
            raise TypeError(f"{name} doubles a spec of {lift.__name__.lower()}s, not {sub!r}")
        doublings = (len(self.ELEMENT.BASIS) // len(lift.BASIS)).bit_length() - 1
        if len(params) != doublings:
            raise TypeError(f"{name} takes {doublings} parameter(s), one per doubling, not {len(params)}")
        params = tuple(map(sub.field.coerce, params))
        if not all(params):
            raise ValueError(self.NONZERO)
        gens = getattr(sub, "gens", ()) + params  # a field has no generators
        values = {"field": sub.field, "sub": sub, "params": params, "gens": gens, "table": Table(sub.field, *gens)}
        for slot, value in values.items():
            object.__setattr__(self, slot, value)

    def _key(self) -> tuple:
        return (self.sub, *self.params)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"

    def __str__(self) -> str:
        return f"{self.KIND}:{','.join(g.render() for g in self.gens)}@{self.field}"

    def element(self, *parts):
        """The element with leading parts `parts` over `sub`, the rest zero."""
        return self._join(parts)
