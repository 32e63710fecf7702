"""Integer structure-constant arithmetic shared by scalars, quaternions and
octonions.

An element is stored as a tuple of integer numerators over one positive
denominator, in lowest terms.  The numerators are its coordinates over the
Q-basis {1, sqrt d} x {1, i, j, k} (x {1, l} for octonions; just {1, sqrt d}
for a scalar of the ground field), interleaved: ground-field coordinate P
sits at position P*width, followed by its sqrt(d) part when the ground field
is Q(sqrt d) (width 2 instead of 1).

Every product goes through one sparse table of integer structure constants
per algebra, derived once from the defining relations.  `Poly` products
convolve the coordinate columns of two polynomials through the same table,
so they work on raw integers over one denominator per polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import TYPE_CHECKING

from .errors import SpecMismatchError, SplitAlgebraError

if TYPE_CHECKING:
    from .scalars import Scalar

RationalLike = (int, Fraction)

# Exact work is bounded by bit height.  The step of an octonion quadratic that
# reaches 64857 bits takes 0.31 s, the next one 1.4 s.
HEIGHT_BUDGET = 2**16


def height(*elements) -> int:
    """Largest bit length among the numerators and denominators of elements."""
    return max(
        (max(e.den.bit_length(), *(v.bit_length() for v in e.nums)) for e in elements),
        default=0,
    )


def _quat_basis(p: int, q: int):
    """e_p * e_q = sign * alpha^a * beta^b * e_r for the basis e_(a + 2b) = i^a j^b.

    Returns (r, sign, (a, b)): i*i = alpha, j*j = beta, j*i = -i*j.
    """
    sign = -1 if p >> 1 & q & 1 else 1
    return p ^ q, sign, (p & q & 1, (p & q) >> 1)


def _oct_basis(p: int, q: int):
    """e_p * e_q for e_(m + 4h) = e_m l^h: returns (r, sign, (a, b, c)).

    The exponent c of gamma = l*l joins those of alpha and beta, by the
    doubling rule (u + v l)(s + t l) = u s + gamma conj(t) v + (t u + v conj(s)) l.
    """
    (h1, m1), (h2, m2) = divmod(p, 4), divmod(q, 4)
    conj = -1 if m2 else 1  # conj(e_m) = -e_m for m != 0
    if not h2:
        r, sign, exps = _quat_basis(m1, m2)
        return (r + 4, conj * sign, exps + (0,)) if h1 else (r, sign, exps + (0,))
    r, sign, exps = _quat_basis(m2, m1)
    return (r, conj * sign, exps + (1,)) if h1 else (r + 4, sign, exps + (0,))


def _field_basis(p: int, q: int):
    """The ground field over itself: 1 * 1 = 1."""
    return 0, 1, ()


class Table:
    """Structure constants of one algebra over Q: (x*y)[r] = sum c*x[p]*y[q] / den.

    The algebra is the ground field itself (no generators), a quaternion
    algebra (alpha, beta) or an octonion algebra (alpha, beta, gamma).
    `rows[p]` lists the (q, r, c) with integer c; a nonzero x[p] only visits
    its own row, so sparse operands cost less.
    """

    __slots__ = ("width", "dim", "den", "rows")

    def __init__(self, field, *gens) -> None:
        d, width = field.d, 1 if field.d is None else 2
        n = 1 << len(gens)
        basis = {0: _field_basis, 2: _quat_basis, 3: _oct_basis}[len(gens)]
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
                r, sign, exps = basis(p, q)
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

    def mul(self, x, y) -> list[int]:
        """Numerators of x*y over den times the denominators of x and y."""
        out = [0] * self.dim
        for xp, row in zip(x, self.rows):
            if xp:
                for q, r, c in row:
                    out[r] += c * xp * y[q]
        return out

    def poly_mul(self, F, G) -> list[list[int]]:
        """Coordinate columns of the product of two polynomials.

        F[p][i] is coordinate p of the i-th coefficient; the coefficients of
        the product are the convolution, with coefficient products taken in
        written order, over den times the denominators of F and G.
        """
        size = len(F[0]) + len(G[0]) - 1
        out = [[0] * size for _ in range(self.dim)]
        for Fp, row in zip(F, self.rows):
            for i, a in enumerate(Fp):
                if a:
                    for q, r, c in row:
                        o, ac = out[r], a * c
                        for k, b in enumerate(G[q], i):
                            o[k] += ac * b
        return out


class Element:
    """Arithmetic shared by scalars, quaternions and octonions.

    Subclasses name their ground-field basis (`BASIS`), the foreign types
    they accept as operands (`LIFTS`) and the error that operands from
    another spec raise (`MISMATCH`); their spec supplies `field`, `table`,
    `coerce` and `one`.
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

    @classmethod
    def from_scalars(cls, spec, values) -> Element:
        """The element with leading ground-field coordinates `values`.

        Each value is a Scalar of the spec's field or a rational; the
        remaining coordinates are zero.
        """
        field, width = spec.field, spec.table.width
        parts = []  # (numerators, denominator) of each value
        for v in values:
            if isinstance(v, RationalLike):
                parts.append(((v.numerator, 0)[:width], v.denominator))
            else:
                v = field.coerce(v)
                parts.append((v.nums, v.den))
        den = lcm(*(d for _, d in parts))
        nums = [v * (den // d) for vs, d in parts for v in vs]
        return cls(spec, nums + [0] * (spec.table.dim - len(nums)), den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _scalar(self, k: int) -> Scalar:
        """Ground-field coordinate k."""
        w = self.spec.table.width
        return self.spec.field.from_nums(self.nums[w * k : w * k + w], self.den)

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
        """Power by repeated squaring; alternativity makes every nesting agree."""
        if not isinstance(n, int) or n < 0:
            raise ValueError(
                f"{type(self).__name__.lower()} powers take a nonnegative "
                "integer exponent"
            )
        out, base = self.spec.one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- involution, trace, norm, inverse -------------------------------------

    def conj(self):
        w = self.spec.table.width
        return type(self)(
            self.spec, self.nums[:w] + tuple(-v for v in self.nums[w:]), self.den
        )

    def trace(self) -> Scalar:
        return self.scalar_part() * 2

    def norm(self) -> Scalar:
        w = self.conj() * self
        if not w.is_central:
            raise AssertionError("conj(z)*z left the ground field")
        return w.scalar_part()

    def inv(self):
        if self.is_zero:
            raise ZeroDivisionError(
                f"inverse of the zero {type(self).__name__.lower()}"
            )
        n = self.norm()
        if not n:
            raise SplitAlgebraError(
                "algebra is split at this element; "
                "not a division ring for these parameters"
            )
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

    def render(self) -> str:
        return render_terms(list(zip(self.coords(), self.BASIS)))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{self.render()} in {self.spec}>"


def render_terms(terms: list[tuple[Scalar, str]]) -> str:
    """Render a linear combination over named basis elements.

    `terms` pairs each coordinate with its basis symbol ("" for the unit).
    Produces e.g. "1 + 2*i - j" or "(1/2 + s5)*k"; zero coordinates are
    dropped and the all-zero combination renders as "0".
    """
    parts: list[str] = []
    for coeff, sym in terms:
        if not coeff:
            continue
        # fold the sign out of pure-rational and pure-radical coordinates;
        # mixed a + b*sqrt(d) coordinates stay parenthesized verbatim
        if coeff.nums[0] and any(coeff.nums[1:]):
            neg, mag = False, f"({coeff.render()})"
        else:
            neg = min(coeff.nums) < 0
            mag = (-coeff if neg else coeff).render()
        if sym:
            body = sym if mag == "1" else f"{mag}*{sym}"
        else:
            body = mag
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    if not parts:
        return "0"
    return " ".join(parts)
