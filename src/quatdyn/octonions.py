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

from math import lcm

from ._kernel import Element, Table
from .errors import SpecMismatchError
from .quaternions import QuatSpec, Quaternion
from .scalars import SCALAR_LIFTS, FieldSpec, QQ

_BASIS = ("", "i", "j", "k", "l", "il", "jl", "kl")


class OctSpec:
    """A quaternion algebra together with the doubling parameter gamma."""

    __slots__ = ("quat", "gamma", "table")

    def __init__(self, quat: QuatSpec, gamma) -> None:
        gamma = quat.field.coerce(gamma)
        if not gamma:
            raise ValueError("gamma must be nonzero")
        object.__setattr__(self, "quat", quat)
        object.__setattr__(self, "gamma", gamma)
        table = Table(quat.field, quat.alpha, quat.beta, gamma)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("OctSpec is immutable")

    @classmethod
    def standard(cls, field: FieldSpec = QQ) -> OctSpec:
        """The classical octonions: (-1, -1) quaternions doubled by gamma = -1."""
        return cls(QuatSpec.standard(field), -1)

    @property
    def field(self) -> FieldSpec:
        return self.quat.field

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OctSpec)
            and self.quat == other.quat
            and self.gamma == other.gamma
        )

    def __hash__(self) -> int:
        return hash(("OctSpec", self.quat, self.gamma))

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
        q, r = self.quat.coerce(q), self.quat.coerce(r)
        den = lcm(q.den, r.den)
        nums = [v * (den // q.den) for v in q.nums] + [v * (den // r.den) for v in r.nums]
        return Octonion(self, nums, den)

    def zero(self) -> Octonion:
        return self.element()

    def one(self) -> Octonion:
        return self.element(1)

    def basis_element(self, sym: str) -> Octonion:
        try:
            idx = _BASIS.index(sym)
        except ValueError:
            raise KeyError(sym) from None
        if idx < 4:
            return self.element(self.quat.basis_element(_BASIS[idx]))
        return self.element(0, self.quat.basis_element(_BASIS[idx - 4]))

    def coerce(self, value) -> Octonion:
        if isinstance(value, Octonion):
            if value.spec is not self and value.spec != self:
                raise SpecMismatchError("element from a different octonion algebra")
            return value
        if isinstance(value, (Quaternion,) + SCALAR_LIFTS):
            return self.element(self.quat.coerce(value))
        raise TypeError(f"cannot interpret {value!r} as an octonion")


class Octonion(Element):
    """Element q + r*l of an octonion algebra."""

    __slots__ = ()

    BASIS = _BASIS
    LIFTS = (Quaternion,) + SCALAR_LIFTS

    # the product lives in this class's own namespace, so that per-class
    # instrumentation can wrap it
    __mul__ = Element.__mul__
    __rmul__ = Element.__rmul__

    @property
    def q(self) -> Quaternion:
        half = len(self.nums) // 2
        return Quaternion(self.spec.quat, self.nums[:half], self.den)

    @property
    def r(self) -> Quaternion:
        half = len(self.nums) // 2
        return Quaternion(self.spec.quat, self.nums[half:], self.den)

    def __hash__(self) -> int:
        # an octonion with no l part equals, and hashes as, its quaternion
        if not any(self.nums[len(self.nums) // 2 :]):
            return hash(self.q)
        return hash((self.spec, self.nums, self.den))
