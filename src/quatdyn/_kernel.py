"""Integer structure-constant arithmetic shared by scalars, quaternions and
octonions.

An element is stored as a tuple of integer numerators over one positive
denominator, in lowest terms.  The numerators are its coordinates over the
Q-basis {1, sqrt d} x {1, i, j, k} (x {1, l} for octonions; just {1, sqrt d}
for a scalar of the ground field), interleaved: ground-field coordinate P
sits at position P*width, followed by its sqrt(d) part when the ground field
is Q(sqrt d) (width 2 instead of 1).

Every product goes through one sparse table of integer structure constants
per algebra, derived once by the Cayley-Dickson doubling rule.  A `Poly` is
the coordinate columns of its coefficients over one denominator, and its
products convolve those columns through the same table: short operands by
the schoolbook convolution, long ones by packing each column into one
integer (Kronecker substitution by `pack` and `unpack`, the only code that
knows the packing format), one integer product per column pair of the table
(`Table.pair_products`).  Composition f(g) runs on the same packed columns
(`Table.compose`): the top power of g and the products by f's coefficients
are summed packed, at one slot that provably holds each coefficient of the
composite, and the composite is unpacked once.

Text prints from the same integers by one rule, `Element.text`, for a
scalar, an element or a row of a `Poly`'s columns, over Q and Q(sqrt d)
alike: no element, no Fraction.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import partial
from itertools import chain, product, repeat
from math import gcd, lcm
from typing import TYPE_CHECKING

from .errors import SpecMismatchError, SplitAlgebraError

if TYPE_CHECKING:
    from .scalars import Scalar

RationalLike = (int, Fraction)

# Exact work is bounded by bit height.  The step of an octonion quadratic that
# reaches 64857 bits takes 0.31 s, the next one 1.4 s.
HEIGHT_BUDGET = 2**16

# Where Table.poly_mul packs columns (Kronecker substitution): operands of at
# least KRONECKER_MIN coefficients and, for two different operands, at least
# one coefficient per KRONECKER_BITS bits of slot or KRONECKER_WIDE of them,
# the slot read from each operand's width profile (`_profile`).  Table.compose
# packs its whole sum where its top product is dense, at any length: it saves
# an unpacking and the schoolbook products by the coefficients of f besides.
# Measured on quaternion columns, the packed product of two different
# operands is 0.5-1.1x as fast as the schoolbook one at 2-4 coefficients,
# 1.6-2.5x at 6-8 and 3-16x at 16-64 for coefficients of up to 64 bits; for
# coefficients of 500 to 20000 bits it breaks even at 12-20 and wins 1.2-1.5x
# at 24-32.  A square is 1.3-1.8x faster than that from 8 coefficients on.
KRONECKER_MIN = 6
KRONECKER_BITS = 64
KRONECKER_WIDE = 24


def height(*elements) -> int:
    """Largest bit length among the numerators and denominators of elements."""
    return max((max(e.den, *map(abs, e.nums)).bit_length() for e in elements), default=0)


def column_height(cols, den: int) -> int:
    """Largest bit length among den and the numerators of coordinate columns over it."""
    return max(den, *map(abs, chain.from_iterable(cols)), 0).bit_length()


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
    """Structure constants of one algebra over Q: (x*y)[r] = sum c*x[p]*y[q] / den.

    The algebra is the ground field itself (no generators), a quaternion
    algebra (alpha, beta) or an octonion algebra (alpha, beta, gamma).
    `rows[p]` lists the (q, r, c) with integer c; a nonzero x[p] only visits
    its own row, so sparse operands cost less.
    """

    __slots__ = (
        "width", "dim", "den", "rows", "pairs", "square_pairs", "norm_pairs", "norm_rows",
        "spread_bits",
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
        self.width = width
        self.dim = n * width
        self.den = den
        self.rows = tuple(tuple(row) for row in rows)
        # the same entries grouped by column pair (p, q) -> ((r, c), ...), for
        # products of packed columns; a square needs each unordered pair once
        pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for p, row in enumerate(rows):
            for q, r, c in row:
                pairs.setdefault((p, q), []).append((r, c))
        self.pairs = tuple((p, q, tuple(t)) for (p, q), t in pairs.items())
        square: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (p, q), targets in pairs.items():
            square.setdefault((min(p, q), max(p, q)), []).extend(targets)
        self.square_pairs = tuple((p, q, tuple(t)) for (p, q), t in square.items())
        # conj(x)*x for a polynomial x needs only the entries landing on the
        # ground field (r < width), with the conjugate's sign on p >= width,
        # merged per unordered pair: 4 products of the 16 for quaternions over Q
        norm: dict[tuple[int, int], dict[int, int]] = {}
        for (p, q), targets in pairs.items():
            for r, c in targets:
                if r < width:
                    merged = norm.setdefault((min(p, q), max(p, q)), {})
                    merged[r] = merged.get(r, 0) + (-c if p >= width else c)
        self.norm_pairs = tuple(
            (p, q, tuple((r, c) for r, c in t.items() if c)) for (p, q), t in norm.items()
        )
        # and the same by rows, for the schoolbook product
        norm_rows: list[list[tuple[int, int, int]]] = [[] for _ in range(self.dim)]
        for p, q, targets in self.norm_pairs:
            norm_rows[p].extend((q, r, c) for r, c in targets)
        self.norm_rows = tuple(tuple(row) for row in norm_rows)
        # bits of the largest sum of |c| over the entries that land on one r
        spread = [0] * self.dim
        for row in rows:
            for _, r, c in row:
                spread[r] += abs(c)
        self.spread_bits = max(spread).bit_length()

    def mul(self, x, y) -> list[int]:
        """Numerators of x*y over den times the denominators of x and y."""
        out = [0] * self.dim
        for xp, row in zip(x, self.rows):
            if xp:
                for q, r, c in row:
                    out[r] += c * xp * y[q]
        return out

    def norm(self, x) -> list[int]:
        """Numerators of conj(x)*x, a ground-field value, over den times the
        square of x's denominator (the entries of `norm_pairs`)."""
        return self.pair_products(self.norm_pairs, x, x)[: self.width]

    def poly_mul(self, F, G, norm: bool = False) -> list[list[int]]:
        """Coordinate columns of the product of two polynomials.

        F[p][i] is coordinate p of the i-th coefficient; the coefficients of
        the product are the convolution, with coefficient products taken in
        written order, over den times the denominators of F and G.  With
        `norm` (and G the same as F), the product is conj(F)*F instead, and
        only its ground-field columns are computed (`norm_pairs`); the others
        are zero.

        The packed product replaces the schoolbook convolution where it
        measured faster: both operands have at least KRONECKER_MIN coefficients
        (shorter ones are not measured), F is even by its width profile
        (`_profile`), and unless G is F, G is even and the shorter operand has
        a coefficient per KRONECKER_BITS bits of slot or KRONECKER_WIDE of them.
        (A square needs about half as many packed products; with few wide
        coefficients, the schoolbook terms are already bignum products.)
        """
        if min(len(F[0]), len(G[0])) < KRONECKER_MIN:
            return self.schoolbook_mul(F, G, norm)
        profile = _profile(F)
        return self._product(F, G, profile, profile if G is F else _profile(G), norm)

    def _product(self, F, G, profile_f, profile_g, norm: bool = False) -> list[list[int]]:
        """poly_mul of F and G, whose width profiles are measured already."""
        short = min(len(F[0]), len(G[0]))
        slot = self._slot_bits(profile_f[0], profile_g[0], short)
        pays = G is F or profile_g[1] and short >= min(slot // KRONECKER_BITS, KRONECKER_WIDE)
        if short >= KRONECKER_MIN and profile_f[1] and pays:
            return self._packed_mul(F, G, slot, norm)
        return self.schoolbook_mul(F, G, norm)

    def _slot_bits(self, bits_f: int, bits_g: int, short: int) -> int:
        """Bits that hold any coefficient of F * G, sign included, for |F| < 2**bits_f
        and |G| < 2**bits_g: each sums at most short = min(len F, len G) products
        per table entry landing on its r, whose |c| sum below 2**spread_bits."""
        return bits_f + bits_g + short.bit_length() + self.spread_bits + 1

    def schoolbook_mul(self, F, G, norm: bool = False, out=None) -> list[list[int]]:
        """poly_mul by the direct convolution: one integer product per term,
        added into the columns `out` when given (long enough to hold them).

        It walks the table by rows, so a zero coefficient of F skips its
        whole row; a walk by column pairs, as in _packed_mul, measured 8%
        slower on the short products of `compose`.
        """
        if out is None:
            size = len(F[0]) + len(G[0]) - 1
            out = [[0] * size for _ in range(self.dim)]
        for Fp, row in zip(F, self.norm_rows if norm else self.rows):
            for i, a in enumerate(Fp):
                if a:
                    for q, r, c in row:
                        o, ac = out[r], a * c
                        for k, b in enumerate(G[q], i):
                            o[k] += ac * b
        return out

    def _packed_mul(self, F, G, slot: int, norm: bool) -> list[list[int]]:
        """poly_mul by Kronecker substitution (Harvey 2009, J. Symb. Comput. 44),
        at a slot of s bits that holds every coefficient.

        Each column becomes one integer, sum F[p][i] * 2**(s*i), so that one
        integer product per column pair (p, q) of the table holds a whole
        convolution (`pair_products`).  The slot is rounded up to whole bytes,
        so that `pack` and `unpack` fill and read it in linear time.  When F
        is G, each unordered column pair is multiplied once.
        """
        size = len(F[0]) + len(G[0]) - 1
        nbytes = (slot + 7) // 8
        packed_f = [pack(col, nbytes) for col in F]
        packed_g = packed_f if G is F else [pack(col, nbytes) for col in G]
        pairs = self.norm_pairs if norm else self.square_pairs if G is F else self.pairs
        return [unpack(v, nbytes, size) for v in self.pair_products(pairs, packed_f, packed_g)]

    def pair_products(self, pairs, A, B, acc=None) -> list[int]:
        """acc[r] += c * A[p] * B[q] for each (p, q, ((r, c), ...)) of pairs.

        A and B are packed columns (a constant's coordinates are its packed
        columns too), so the products are summed packed, with the structure
        constants, per output coordinate r; acc starts at zero by default.
        """
        acc = [0] * self.dim if acc is None else acc
        for p, q, targets in pairs:
            a, b = A[p], B[q]
            if a and b:
                ab = a * b
                for r, c in targets:
                    acc[r] += c * ab
        return acc

    def compose(self, F, G, scale: int) -> list[list[int]]:
        """Numerator columns of f(g) = sum c_i * (g^i) over den(f) * scale**m.

        F holds the columns of c_0, ..., c_m (m >= 1, c_m nonzero), G those of
        g, and scale = den(g) * den.  With G^i = G^(i-1) * G, the table's
        left-nested power, c_i * (g^i) is c_i * G^i over den(f) * scale**i,
        so the sum is taken by Horner's rule in the scale: (c_0 * scale +
        c_1 * G) * scale + c_2 * G^2, and so on.

        G and each power below G^m are measured once (`_profile`) and
        multiplied by poly_mul's rule, each at its own slot.  When G is even
        and G^(m-1) * G dense by that rule (at any length), G and the powers
        with a nonzero c_i are packed at one slot, G^m is formed there by the
        pair products, the terms are summed into one packed accumulator per
        coordinate, and the sum is unpacked once: exactly, since packing is
        linear and `_compose_bits` bounds each coefficient within the signed
        slot.  Otherwise G^m takes the product rule too, and the terms are
        added into columns by the schoolbook product: for an uneven G, or few
        wide coefficients, the packed sum measured slower.
        """
        m, size, short = len(F[0]) - 1, (len(F[0]) - 1) * (len(G[0]) - 1) + 1, len(G[0])
        coeffs = list(zip(*F))
        powers, profiles = [G], [_profile(G)]
        while len(powers) < m - 1:
            powers.append(self._product(powers[-1], G, profiles[-1], profiles[0]))
            profiles.append(_profile(powers[-1]))
        slot = self._slot_bits(profiles[-1][0], profiles[0][0], short)
        if not (m > 1 and profiles[0][1] and short >= min(slot // KRONECKER_BITS, KRONECKER_WIDE)):
            if m > 1:
                powers.append(self._product(powers[-1], G, profiles[-1], profiles[0]))
            out = [[v] + [0] * (size - 1) for v in coeffs[0]]
            for k, c, P in _horner(coeffs, powers):
                if scale != 1:
                    out = [[v * scale**k for v in col] for col in out]
                self.schoolbook_mul([[v] for v in c], P, out=out)
            return out
        bits = [b for b, _ in profiles] + [slot - 1]
        nbytes = (self._compose_bits(coeffs, bits, scale) + 7) // 8
        packed = [  # G^i for its term, and G^(m-1) and G for G^m
            [pack(col, nbytes) for col in P] if any(coeffs[i]) or i in (1, m - 1) else None
            for i, P in enumerate(powers, 1)
        ]
        pairs = self.square_pairs if m == 2 else self.pairs
        packed.append(self.pair_products(pairs, packed[-1], packed[0]))
        acc = list(coeffs[0])
        for k, c, P in _horner(coeffs, packed):
            if scale != 1:
                acc = [v * scale**k for v in acc]
            self.pair_products(self.pairs, c, P, acc)
        return [unpack(v, nbytes, size) for v in acc]

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


def _horner(coeffs, powers):
    """(k, c_i, G^i) for the nonzero c_i, i >= 1, in rising i: k is the number
    of scale factors by which the sum so far must be multiplied first."""
    k = 0
    for c, P in zip(coeffs[1:], powers):
        k += 1
        if any(c):
            yield k, c, P
            k = 0


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


class Element:
    """Arithmetic shared by scalars, quaternions and octonions.

    Subclasses name their ground-field basis (`BASIS`), the foreign types
    they accept as operands (`LIFTS`) and the error that operands from
    another spec raise (`MISMATCH`); their spec, a `Spec`, supplies `field`,
    `table`, `coerce` and `one`.
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

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _scalar(self, k: int) -> Scalar:
        """Ground-field coordinate k."""
        w, field = self.spec.table.width, self.spec.field
        return field.ELEMENT(field, self.nums[w * k : w * k + w], self.den)

    def coords(self) -> tuple[Scalar, ...]:
        return tuple(self._scalar(k) for k in range(len(self.BASIS)))

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_central(self) -> bool:
        return not any(self.nums[self.spec.table.width :])

    def scalar_part(self) -> Scalar:
        return self._scalar(0)

    # -- coercion -----------------------------------------------------------

    def _lift(self, other):
        if type(other) is type(self):
            if other.spec is not self.spec and other.spec != self.spec:
                raise self.MISMATCH(f"mixed {self.spec} and {other.spec}")
            return other
        if isinstance(other, self.LIFTS):
            return self.spec.coerce(other)
        return None

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        s, t = o.den, self.den
        nums = [a * s + b * t for a, b in zip(self.nums, o.nums)]
        return type(self)(self.spec, nums, s * t)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        s, t = o.den, self.den
        nums = [a * s - b * t for a, b in zip(self.nums, o.nums)]
        return type(self)(self.spec, nums, s * t)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return type(self)(self.spec, [-v for v in self.nums], self.den)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        table = self.spec.table
        nums = table.mul(self.nums, o.nums)
        return type(self)(self.spec, nums, self.den * o.den * table.den)

    def __rmul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
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
        table, field = self.spec.table, self.spec.field
        return field.ELEMENT(field, table.norm(self.nums), self.den * self.den * table.den)

    def inv(self):
        if self.is_zero:
            raise ZeroDivisionError(
                f"inverse of the zero {type(self).__name__.lower()}"
            )
        n = self.norm()
        if not n:
            raise SplitAlgebraError()
        return self.conj() * n.inv()

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    # -- predicates -----------------------------------------------------------

    def commutes(self, other) -> bool:
        o = self._lift(other)
        return (self * o - o * self).is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, self.LIFTS):
            other = self.spec.coerce(other)
        elif type(other) is not type(self):
            return NotImplemented
        return (
            self.nums == other.nums
            and self.den == other.den
            and (self.spec is other.spec or self.spec == other.spec)
        )

    def __hash__(self) -> int:
        # equal elements hash equal: a central element equals its scalar
        if self.is_central:
            return hash(self.scalar_part())
        return hash((self.spec, self.nums, self.den))

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

    A subclass names its element class (`ELEMENT`), sets `table` and `field`,
    and defines `_key`, the parameters it compares and hashes by, and `sub`,
    the spec one level down whose elements it lifts (a field lifts only
    rationals and has none).  Specs are immutable.
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
