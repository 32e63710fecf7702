"""Octonion algebras Q + Q*l: a quaternion algebra Q doubled by gamma
(`_kernel.DoubledSpec`).

The product rule on pairs, with l*l = gamma and conj the quaternion
involution, is

    (q + r*l)(s + t*l) = q*s + gamma*conj(t)*r + (t*q + r*conj(s))*l

It is alternative but not associative; powers are still unambiguous (any
two elements generate an associative subalgebra), so `_kernel` computes them
by repeated squaring.  Products go through the structure-constant table that
`_kernel` derives from this rule; here are the halves q and r of an element.
"""

from __future__ import annotations

from ._kernel import DoubledSpec, Element
from .quaternions import QuatSpec, Quaternion
from .scalars import SCALAR_LIFTS, FieldSpec, QQ


class Octonion(Element):
    """Element q + r*l of an octonion algebra."""

    __slots__ = ()

    BASIS = ("", "i", "j", "k", "l", "il", "jl", "kl")
    LIFTS = (Quaternion,) + SCALAR_LIFTS

    q = property(lambda self: Quaternion(self.spec.quat, self.nums[: len(self.nums) // 2], self.den))
    r = property(lambda self: Quaternion(self.spec.quat, self.nums[len(self.nums) // 2 :], self.den))


class OctSpec(DoubledSpec):
    """An octonion algebra: a quaternion algebra doubled by gamma."""

    __slots__ = ()

    ELEMENT = Octonion
    KIND = "oct"
    NONZERO = "gamma must be nonzero"

    quat = property(lambda self: self.sub)
    gamma = property(lambda self: self.params[0])

    @classmethod
    def standard(cls, field: FieldSpec = QQ) -> OctSpec:
        """The classical octonions: (-1, -1) quaternions doubled by gamma = -1."""
        return cls(QuatSpec.standard(field), -1)
