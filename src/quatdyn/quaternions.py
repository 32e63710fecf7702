"""Generalized quaternion algebras (alpha, beta / F).

Basis 1, i, j, k with i*i = alpha, j*j = beta, j*i = -i*j and k := i*j.
The canonical involution negates the non-scalar part; trace and norm land in
the ground field.  Division is not assumed: inverting a nonzero element of
zero norm raises SplitAlgebraError, so split parameter pairs are usable up to
the point where they stop being division rings.
"""

from __future__ import annotations

from functools import lru_cache

from ._kernel import Element, Table
from .errors import SpecMismatchError
from .scalars import SCALAR_LIFTS, FieldSpec, QQ, Scalar

_BASIS = ("", "i", "j", "k")


class QuatSpec:
    """Structure constants of a quaternion algebra over a ground field."""

    __slots__ = ("field", "alpha", "beta", "table")

    def __init__(self, field: FieldSpec, alpha, beta) -> None:
        alpha = field.coerce(alpha)
        beta = field.coerce(beta)
        if not alpha or not beta:
            raise ValueError("alpha and beta must be nonzero")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "table", Table(field, alpha, beta))

    def __setattr__(self, name, value):
        raise AttributeError("QuatSpec is immutable")

    @classmethod
    @lru_cache(maxsize=8)  # specs are immutable; parse_scalar asks for one per scalar
    def standard(cls, field: FieldSpec = QQ) -> QuatSpec:
        """The (-1, -1) algebra: Hamilton-type quaternions over `field`."""
        return cls(field, -1, -1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuatSpec)
            and self.field == other.field
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self) -> int:
        return hash(("QuatSpec", self.field, self.alpha, self.beta))

    def __repr__(self) -> str:
        return f"QuatSpec({self.field!r}, {self.alpha!r}, {self.beta!r})"

    def __str__(self) -> str:
        return f"quat:{self.alpha.render()},{self.beta.render()}@{self.field}"

    # -- constructors -------------------------------------------------------

    def element(self, a=0, b=0, c=0, e=0) -> Quaternion:
        return Quaternion.from_scalars(self, (a, b, c, e))

    def zero(self) -> Quaternion:
        return self.element()

    def one(self) -> Quaternion:
        return self.element(1)

    def i(self) -> Quaternion:
        return self.element(0, 1)

    def j(self) -> Quaternion:
        return self.element(0, 0, 1)

    def k(self) -> Quaternion:
        return self.element(0, 0, 0, 1)

    def basis_element(self, sym: str) -> Quaternion:
        try:
            idx = _BASIS.index(sym if sym else "")
        except ValueError:
            raise KeyError(sym) from None
        coords = [0, 0, 0, 0]
        coords[idx] = 1
        return self.element(*coords)

    def coerce(self, value) -> Quaternion:
        if isinstance(value, Quaternion):
            if value.spec is not self and value.spec != self:
                raise SpecMismatchError("element from a different quaternion algebra")
            return value
        if isinstance(value, SCALAR_LIFTS):
            return Quaternion.from_scalars(self, (value,))
        raise TypeError(f"cannot interpret {value!r} as a quaternion")


class Quaternion(Element):
    """Element a + b*i + c*j + e*k of a quaternion algebra."""

    __slots__ = ()

    BASIS = _BASIS
    LIFTS = SCALAR_LIFTS

    # the product and inverse live in this class's own namespace, so that
    # per-class instrumentation can wrap them
    __mul__ = Element.__mul__
    __rmul__ = Element.__rmul__
    inv = Element.inv

    a = property(lambda self: self._scalar(0))
    b = property(lambda self: self._scalar(1))
    c = property(lambda self: self._scalar(2))
    e = property(lambda self: self._scalar(3))

    def in_class(self, trace: Scalar, norm: Scalar) -> bool:
        """Whether z*z - trace*z + norm vanishes exactly."""
        t = self.spec.field.coerce(trace)
        n = self.spec.field.coerce(norm)
        return (self * self - self * t + n).is_zero
