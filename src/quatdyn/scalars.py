"""Exact scalars: rationals and real/imaginary quadratic extensions Q(sqrt d).

The ground field is an algebra of dimension 1 (Q) or 2 (Q(sqrt d)) over Q
with its own structure-constant table, so a Scalar is an `Element` of the
integer kernel: the numerators of a (and b) in a + b*sqrt(d) over one
denominator, with the sum, difference, product, inverse, quotient and power
of every other element (the inverse by the kernel's one rule, through the
field conjugate), and with its text: `Element.text`, the coordinate form
`p/q + r/s*s5`.  What is particular to a field lives here: the exact order
(when d > 0), and `to_real`, which produces a dyadic rational within
2**-bits of the true value under the principal embedding sqrt(d) > 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm

from ._kernel import Element, RationalLike, Spec, Table, lifted
from .errors import FieldMismatchError, NoRealEmbeddingError


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


def nearest(d: int | None, nums, den: int, bits: int) -> int:
    """The integer nearest (a + b*sqrt d) * 2**bits / den under sqrt(d) > 0.

    nums is (a,) or (a, b) and den any nonzero integer.  A tie, possible only
    when b = 0 (sqrt d is irrational), goes to the even integer.
    """
    if den < 0:
        nums, den = [-v for v in nums], -den
    a, b = nums[0], nums[1] if len(nums) > 1 else 0
    if not b:
        q, r = divmod(a << bits, den)
        return q + (2 * r > den or (2 * r == den and q & 1))
    # floor(2*b*sqrt(d) * 2**bits); the root is irrational, so never an integer
    r = isqrt(b * b * d << 2 * bits + 2)
    r = r if b > 0 else -r - 1
    # floor(x * 2**bits + 1/2) = floor((2*a*2**bits + 2*b*sqrt(d)*2**bits + den) / (2*den))
    return ((a << bits + 1) + r + den) // (2 * den)


@total_ordering
class Scalar(Element):
    """An exact element a + b*sqrt(d) of the ground field."""

    __slots__ = ()

    BASIS = ("",)
    LIFTS = RationalLike
    MISMATCH = FieldMismatchError

    field = property(lambda self: self.spec)
    a = property(lambda self: Fraction(self.nums[0], self.den))
    b = property(
        lambda self: Fraction(self.nums[1], self.den) if len(self.nums) > 1 else Fraction(0)
    )

    # -- predicates and order ----------------------------------------------

    def __bool__(self) -> bool:
        return any(self.nums)

    def _sign(self) -> int:
        """Exact sign under the principal real embedding."""
        if not self.spec.has_real_embedding:
            raise NoRealEmbeddingError(f"{self.spec} has no real embedding")
        a, b = (self.nums + (0,))[:2]
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa == sb or not sb:
            return sa
        if not sa:
            return sb
        # opposite signs: compare a^2 with d b^2; ties impossible (sqrt d irrational)
        return sa if a * a > self.spec.d * b * b else sb

    @lifted
    def __lt__(self, o) -> bool:
        """The exact order; `total_ordering` derives <=, > and >= from it
        and ==."""
        return (self - o)._sign() < 0

    # -- real embedding -----------------------------------------------------

    def to_real(self, bits: int = 64) -> Fraction:
        """Round to the nearest multiple of 2**-bits under sqrt(d) > 0, ties to
        even (`nearest`).

        The result is an exact dyadic rational within 2**-bits of the value.
        """
        if bits < 1:
            raise ValueError("bits must be positive")
        if not self.spec.has_real_embedding:
            raise NoRealEmbeddingError(f"{self.spec} has no real embedding")
        return Fraction(nearest(self.spec.d, self.nums, self.den, bits), 1 << bits)

    def __float__(self) -> float:
        if any(self.nums[1:]):
            return float(self.to_real(128))
        return self.nums[0] / self.den


SCALAR_LIFTS = (Scalar,) + RationalLike


class FieldSpec(Spec):
    """Ground field: Q when d is None, otherwise Q(sqrt d) for squarefree d."""

    __slots__ = ("d",)

    ELEMENT = Scalar

    def __init__(self, d: int | None = None) -> None:
        if d is not None:
            if d in (0, 1):
                raise ValueError(f"d = {d} does not define a quadratic extension")
            if abs(d) >= 2**40:  # trial division takes 0.09 s at 40 bits, 1.6 s at 47
                raise ValueError(f"|d| = {abs(d)} is not below 2**40")
            if not _is_squarefree(d):
                raise ValueError(f"d = {d} is not squarefree")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "table", Table(self))

    def _key(self) -> tuple:
        return (self.d,)

    @property
    def field(self) -> FieldSpec:
        """The ground field of the field as an algebra: itself."""
        return self

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @property
    def has_real_embedding(self) -> bool:
        return self.d is None or self.d > 0

    def scalar(self, a: int | Fraction = 0, b: int | Fraction = 0) -> Scalar:
        """a + b*sqrt(d) for rationals a and b."""
        if b and self.d is None:
            raise ValueError("rational field scalars cannot carry a radical part")
        a, b = Fraction(a), Fraction(b)
        den = lcm(a.denominator, b.denominator)
        nums = (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
        return Scalar(self, nums[: self.table.width], den)

    def sqrt_gen(self) -> Scalar:
        """The generator sqrt(d) itself."""
        if self.d is None:
            raise ValueError("the rational field has no radical generator")
        return Scalar(self, (0, 1))

    def __repr__(self) -> str:
        return f"FieldSpec(d={self.d})"

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(s{self.d})"


QQ = FieldSpec()
