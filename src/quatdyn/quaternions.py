"""Generalized quaternion algebras (alpha, beta / F).

Basis 1, i, j, k with i*i = alpha, j*j = beta, j*i = -i*j and k := i*j.
The canonical involution negates the non-scalar part; trace and norm land in
the ground field.  The arithmetic does not assume division: inverting a
nonzero element of zero norm raises SplitAlgebraError.  Root finding does:
over split parameters its `none` is no proof, and classes can be missing.
"""

from __future__ import annotations

from functools import lru_cache

from ._kernel import Element, Spec, Table
from .scalars import SCALAR_LIFTS, FieldSpec, QQ, Scalar


class Quaternion(Element):
    """Element a + b*i + c*j + e*k of a quaternion algebra."""

    __slots__ = ()

    BASIS = ("", "i", "j", "k")
    LIFTS = SCALAR_LIFTS

    a = property(lambda self: self._scalar(0))
    b = property(lambda self: self._scalar(1))
    c = property(lambda self: self._scalar(2))
    e = property(lambda self: self._scalar(3))

    def in_class(self, trace: Scalar, norm: Scalar) -> bool:
        """Whether z*z - trace*z + norm vanishes exactly."""
        t = self.spec.field.coerce(trace)
        n = self.spec.field.coerce(norm)
        return (self * self - self * t + n).is_zero


class QuatSpec(Spec):
    """Structure constants of a quaternion algebra over a ground field."""

    __slots__ = ("field", "alpha", "beta")

    ELEMENT = Quaternion

    def __init__(self, field: FieldSpec, alpha, beta) -> None:
        alpha = field.coerce(alpha)
        beta = field.coerce(beta)
        if not alpha or not beta:
            raise ValueError("alpha and beta must be nonzero")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "table", Table(field, alpha, beta))

    @classmethod
    @lru_cache(maxsize=8)  # specs are immutable; parse_scalar asks for one per scalar
    def standard(cls, field: FieldSpec = QQ) -> QuatSpec:
        """The (-1, -1) algebra: Hamilton-type quaternions over `field`."""
        return cls(field, -1, -1)

    def _key(self) -> tuple:
        return (self.field, self.alpha, self.beta)

    @property
    def sub(self) -> FieldSpec:
        return self.field

    def __repr__(self) -> str:
        return f"QuatSpec({self.field!r}, {self.alpha!r}, {self.beta!r})"

    def __str__(self) -> str:
        return f"quat:{self.alpha.render()},{self.beta.render()}@{self.field}"

    # -- constructors -------------------------------------------------------

    def element(self, a=0, b=0, c=0, e=0) -> Quaternion:
        return self._join((a, b, c, e))

    def i(self) -> Quaternion:
        return self.basis_element("i")

    def j(self) -> Quaternion:
        return self.basis_element("j")

    def k(self) -> Quaternion:
        return self.basis_element("k")
