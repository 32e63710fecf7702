"""Generalized quaternion algebras (alpha, beta / F): `Quaternion` and `QuatSpec`.

Basis 1, i, j, k with i*i = alpha, j*j = beta, j*i = -i*j and k := i*j: the
ground field doubled twice (`_kernel.DoubledSpec`).  The arithmetic, with
the involution, trace, norm, inverse and class test `in_class`, is
`_kernel.Element`'s; it does not assume division: inverting a nonzero
element of zero norm raises SplitAlgebraError.  Root finding does: over
split parameters its `none` is no proof, and classes can be missing.
"""

from __future__ import annotations

from functools import lru_cache

from ._kernel import DoubledSpec, Element
from .scalars import SCALAR_LIFTS, FieldSpec, QQ


class Quaternion(Element):
    """Element a + b*i + c*j + e*k of a quaternion algebra."""

    __slots__ = ()

    BASIS = ("", "i", "j", "k")
    LIFTS = SCALAR_LIFTS

    a = property(lambda self: self._scalar(0))
    b = property(lambda self: self._scalar(1))
    c = property(lambda self: self._scalar(2))
    e = property(lambda self: self._scalar(3))


class QuatSpec(DoubledSpec):
    """A quaternion algebra: the ground field doubled by alpha, then by beta."""

    __slots__ = ()

    ELEMENT = Quaternion
    KIND = "quat"
    NONZERO = "alpha and beta must be nonzero"

    alpha = property(lambda self: self.params[0])
    beta = property(lambda self: self.params[1])

    @classmethod
    @lru_cache(maxsize=8)  # specs are immutable; parse_scalar asks for one per scalar
    def standard(cls, field: FieldSpec = QQ) -> QuatSpec:
        """The (-1, -1) algebra: Hamilton-type quaternions over `field`."""
        return cls(field, -1, -1)

    def i(self) -> Quaternion:
        return self.basis_element("i")

    def j(self) -> Quaternion:
        return self.basis_element("j")

    def k(self) -> Quaternion:
        return self.basis_element("k")
