"""Octonion algebras Q + Q*l built by doubling a quaternion algebra.

The product rule on pairs, with l*l = gamma and conj the quaternion
involution, is

    (q + r*l)(s + t*l) = q*s + gamma*conj(t)*r + (t*q + r*conj(s))*l

It is alternative but not associative; powers are still unambiguous (any
two elements generate an associative subalgebra), so `_kernel` computes them
by repeated squaring.  Products go through the structure-constant table that
`_kernel` derives from this rule.
"""

from __future__ import annotations

from ._kernel import Element, Spec, Table
from .quaternions import QuatSpec, Quaternion
from .scalars import SCALAR_LIFTS, FieldSpec, QQ


class Octonion(Element):
    """Element q + r*l of an octonion algebra."""

    __slots__ = ()

    BASIS = ("", "i", "j", "k", "l", "il", "jl", "kl")
    LIFTS = (Quaternion,) + SCALAR_LIFTS

    @property
    def q(self) -> Quaternion:
        half = len(self.nums) // 2
        return Quaternion(self.spec.quat, self.nums[:half], self.den)

    @property
    def r(self) -> Quaternion:
        half = len(self.nums) // 2
        return Quaternion(self.spec.quat, self.nums[half:], self.den)


class OctSpec(Spec):
    """A quaternion algebra together with the doubling parameter gamma."""

    __slots__ = ("quat", "gamma")

    ELEMENT = Octonion

    def __init__(self, quat: QuatSpec, gamma) -> None:
        gamma = quat.field.coerce(gamma)
        if not gamma:
            raise ValueError("gamma must be nonzero")
        object.__setattr__(self, "quat", quat)
        object.__setattr__(self, "gamma", gamma)
        table = Table(quat.field, quat.alpha, quat.beta, gamma)
        object.__setattr__(self, "table", table)

    @classmethod
    def standard(cls, field: FieldSpec = QQ) -> OctSpec:
        """The classical octonions: (-1, -1) quaternions doubled by gamma = -1."""
        return cls(QuatSpec.standard(field), -1)

    @property
    def field(self) -> FieldSpec:
        return self.quat.field

    def _key(self) -> tuple:
        return (self.quat, self.gamma)

    @property
    def sub(self) -> QuatSpec:
        return self.quat

    def __repr__(self) -> str:
        return f"OctSpec({self.quat!r}, {self.gamma!r})"

    def __str__(self) -> str:
        q = self.quat
        return (
            f"oct:{q.alpha.render()},{q.beta.render()},"
            f"{self.gamma.render()}@{q.field}"
        )

    # -- constructors ---------------------------------------------------------

    def element(self, q=0, r=0) -> Octonion:
        return self._join((q, r))
