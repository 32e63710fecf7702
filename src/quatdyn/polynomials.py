"""Left polynomials over a quaternion or octonion algebra, or over the ground
field itself (the companion polynomials of the solver).

Coefficients sit on the left of a central variable: f(x) = sum c_i x^i, and a
`Poly` holds them as integer coordinate columns over one denominator.
Multiplication is the convolution with coefficient products taken in written
order, and substitution f(lam) = sum c_i lam^i is *not* a ring homomorphism.
Two different iterations therefore coexist and are kept apart throughout:

  compose_iterate(n)   the polynomial f(f(...)), outer copy applied last;
  eval_iterate(lam, n) the value f(f(...f(lam))), plain repeated evaluation.

Values of composites at a point lam need no composite: `quotient_value`
evaluates f in A[x]/(x^2 - T*x + N), with (T, N) the trace and norm of lam.

They agree when lam commutes with the intermediate values and differ in
general.  Composition of polynomials is itself non-associative over a
noncommutative coefficient algebra, so the outer-application order above is
part of the contract.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from ._kernel import HEIGHT_BUDGET, column_height
from .errors import DegreeCapError, SpecMismatchError, UnsupportedAlgebraError
from .octonions import Octonion, OctSpec
from .quaternions import QuatSpec, Quaternion
from .scalars import FieldSpec, RationalLike, Scalar

DEGREE_CAP = 4096

# compose_iterate's work budget.  A composite of degree D and column height H
# (`column_height`) takes deg(f) polynomial products of operands of about
# (D + 1) * H bits in each nonzero coordinate column; the product of the three
# passing COMPOSE_BITS stops it, and so does H passing HEIGHT_BUDGET (printing
# grows with H squared).  It counts bits, so sparse low-height composites pass
# it, and DEGREE_CAP stops them.  Measured: the README's quadratic reaches
# 8.6e6 at n = 10 (0.35 s) and 3.4e7 at n = 11 (2.8-3.3 s, nearly all of it
# the last packed square); of 4088 random compose calls (degree 1-16, heights
# up to 7000 bits, n up to 13, all five test algebras) none took more than
# 1.1 s.
COMPOSE_BITS = 10_000_000

AlgebraSpec = QuatSpec | OctSpec | FieldSpec
Element = Quaternion | Octonion | Scalar


class Poly:
    """Dense left-coefficient polynomial, stored as its coordinate columns.

    cols[p][i] / den is coordinate p of the coefficient of x^i, over one
    positive den, with no trailing zero coefficient and content 1 (the gcd of
    den and every numerator): a unique form, so it decides equality.  The
    lists are never mutated.  `coeffs` builds the elements on first use.
    """

    __slots__ = ("spec", "cols", "den", "_coeffs")

    spec: AlgebraSpec
    cols: list[list[int]]
    den: int

    def __init__(self, spec: AlgebraSpec, coeffs=()) -> None:
        cs = [spec.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        # each coefficient is in lowest terms, so over their lcm the content is 1
        den = lcm(*(c.den for c in cs))
        rows = [c.nums if c.den == den else [v * (den // c.den) for v in c.nums] for c in cs]
        cols = [list(col) for col in zip(*rows)] or [[] for _ in range(spec.table.dim)]
        self._set(spec, cols, den, tuple(cs))

    @classmethod
    def from_cols(cls, spec: AlgebraSpec, cols, den: int) -> Poly:
        """The polynomial with coordinate columns cols over den > 0, any content."""
        return object.__new__(cls)._set(spec, *_reduced(cols, den))

    def _set(self, spec, cols, den, coeffs=None) -> Poly:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Element, ...]:
        """The coefficients, lowest degree first, each in lowest terms."""
        if self._coeffs is None:
            spec, den = self.spec, self.den
            coeffs = tuple(spec.ELEMENT(spec, nums, den) for nums in zip(*self.cols))
            object.__setattr__(self, "_coeffs", coeffs)
        return self._coeffs

    @classmethod
    def constant(cls, spec: AlgebraSpec, value) -> Poly:
        c = spec.coerce(value)
        return cls.from_cols(spec, [[v] for v in c.nums], c.den)

    @classmethod
    def x(cls, spec: AlgebraSpec) -> Poly:
        return cls.from_cols(spec, [[0, v] for v in spec.one().nums], 1)

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.cols[0]) - 1

    @property
    def is_zero(self) -> bool:
        return not self.cols[0]

    def coeff(self, i: int) -> Element:
        if 0 <= i <= self.degree:
            return self.coeffs[i]
        return self.spec.zero()

    def leading(self) -> Element:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- coercion -------------------------------------------------------------

    def _lift(self, other) -> Poly | None:
        if isinstance(other, Poly):
            if other.spec != self.spec:
                raise SpecMismatchError("polynomials over different algebras")
            return other
        if isinstance(other, (Quaternion, Octonion, Scalar) + RationalLike):
            return Poly.constant(self.spec, other)
        return None

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other) -> Poly:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Poly.from_cols(self.spec, *_add_columns(self.cols, self.den, o.cols, o.den))

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __neg__(self) -> Poly:
        return Poly.from_cols(self.spec, [[-v for v in col] for col in self.cols], self.den)

    def __mul__(self, other) -> Poly:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Poly(self.spec)
        table = self.spec.table
        # a square passes one column list twice, for the packed square
        cols = table.poly_mul(self.cols, o.cols)
        return Poly.from_cols(self.spec, cols, self.den * o.den * table.den)

    def __rmul__(self, other) -> Poly:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, t: int) -> Poly:
        """Power by repeated squaring, equal to the left-nested (f*f)*f...

        A[x] is alternative when A is (x is central), so by Artin's theorem
        every nesting of a power agrees, over octonions too.
        """
        if not isinstance(t, int) or t < 0:
            raise ValueError("polynomial powers take a nonnegative integer exponent")
        out, base = None, self
        while t:
            if t & 1:
                out = base if out is None else out * base
            t >>= 1
            if t:
                base = base * base
        return Poly.constant(self.spec, 1) if out is None else out

    # -- substitution ----------------------------------------------------------------

    def __call__(self, lam) -> Element:
        """Evaluate sum c_i lam^i, powers of lam left-nested.

        Horner's rule gives the same value over octonions too: every term
        (c_i lam) lam ... lam lies in the subalgebra generated by c_i and lam,
        which is associative (Artin's theorem).  With the coefficients over
        one denominator and lam = X/D, the numerators run over powers of
        D*den(table), and the value is reduced once, at the end.
        """
        lam = self.spec.coerce(lam)
        if self.is_zero:
            return self.spec.zero()
        table, cols = self.spec.table, self.cols
        scale = lam.den * table.den
        power = 1
        acc = [col[-1] for col in cols]
        for i in range(self.degree - 1, -1, -1):
            power *= scale
            acc = [v + col[i] * power for v, col in zip(table.mul(acc, lam.nums), cols)]
        return type(lam)(self.spec, acc, self.den * power)

    def compose(self, other) -> Poly:
        """Substitute a polynomial: sum c_i * (other ** i).

        The powers are left-nested, g^i = g^(i-1) * g, and each term is
        c_i * (g^i); A[x] is alternative, so Horner's rule in g would give
        the same polynomial, over octonions too.  `Table.compose` sums the
        numerators over den(f) * s**m, with s = den(g) * den(table) and
        m = deg f, in one pass, and the sum is reduced once.

        Where it sums packed, it relies on one condition: every coefficient
        of the sum fits in the signed slot.  The slot holds, rounded up to
        whole bytes, the largest over the nonzero terms of bits(c_i) +
        bits(s**(m - i) - 1) + spread + bits(g^i), plus the bit length of
        the number of terms, plus a sign bit; spread bounds the structure
        constants landing on one coordinate (`Table.spread_bits`), and
        bits(g^m) is taken as `Table.slot_bits` of g^(m-1) and g, less one.
        """
        o = self._lift(other)
        if o is None:
            raise TypeError(f"cannot compose with {other!r}")
        if self.degree < 1 or o.is_zero:
            return Poly.from_cols(self.spec, [col[:1] for col in self.cols], self.den)
        table = self.spec.table
        scale = o.den * table.den
        cols = table.compose(self.cols, o.cols, scale)
        return Poly.from_cols(self.spec, cols, self.den * scale**self.degree)

    def compose_iterate(self, n: int) -> Poly:
        """n-fold self-composition, the outer copy applied last at each step.

        Raises DegreeCapError when the composite's degree degree**n would pass
        DEGREE_CAP; a linear polynomial keeps degree 1, so there each
        composition counts against the cap instead.  Before building each
        composite, its column height (`column_height`) is predicted from
        deg(f) and the column heights of f and of the last composite;
        DegreeCapError is raised too when that height, or the work of the
        products that build it (see COMPOSE_BITS), is over budget.
        """
        if n < 1:
            raise ValueError("n must be at least 1")
        if self.degree == 1 and n > DEGREE_CAP:
            raise DegreeCapError(
                f"{n} compositions of a linear polynomial exceed cap {DEGREE_CAP}"
            )
        # degree**k > DEGREE_CAP once k exceeds the cap's bit length
        if self.degree >= 2 and self.degree ** min(n, DEGREE_CAP.bit_length() + 1) > DEGREE_CAP:
            raise DegreeCapError(
                f"composition degree {self.degree}**{n} exceeds cap {DEGREE_CAP}"
            )
        out = self
        if self.degree >= 1:  # a constant composed with anything is itself
            f_bits = column_height(self.cols, self.den)
            for k in range(2, n + 1):
                # the composite's coefficients: deg(f) powers of out's, times f's
                bits = self.degree * column_height(out.cols, out.den) + f_bits
                columns = sum(map(any, out.cols))
                work = columns * self.degree * (self.degree * out.degree + 1) * bits
                for size, what, budget in (
                    (bits, "height", HEIGHT_BUDGET),
                    (work, "work", COMPOSE_BITS),
                ):
                    if size > budget:
                        raise DegreeCapError(
                            f"composite {k} exceeds the budget: its predicted {what} "
                            f"of {size} bits is over {budget}"
                        )
                out = self.compose(out)
        return out

    def quotient_value(self, u, trace, norm) -> tuple[Element, Element]:
        """f(u) = sum c_i u^i in A[x]/(x^2 - trace*x + norm), by Horner's rule.

        u = (a, b) stands for a*x + b, and so does the pair returned.  The
        modulus has ground-field coefficients, so it is central and reduction
        modulo it is a homomorphism, over octonions too.  Hence the residue of
        a composite f(g) is f evaluated at the residue of g, and every
        polynomial with residue a*x + b takes the value a*lam + b at each lam
        of trace `trace` and norm `norm`.  The residue ring is alternative, so
        Horner's rule gives sum c_i u^i term by term, as in `__call__`: each
        step multiplies by u with x*x = trace*x - norm, 6 products.  Like
        `__call__`'s, the recurrence runs on integer numerators: a and b over
        one denominator, trace and norm over another, and the running pair
        over den times a power of their product (and of den(table)).  Its two
        elements are built, and reduced, only at the end.
        """
        spec = self.spec
        if self.is_zero:
            return spec.zero(), spec.zero()
        table, mul, cols = spec.table, spec.table.mul, self.cols
        (a, b, du), (T, N, dc) = (_common(spec, pair) for pair in (u, (trace, norm)))
        # a product by a or b scales the denominator by su, one by T or N by sc
        su, sc = du * table.den, dc * table.den
        power = 1
        A, B = [0] * table.dim, [col[-1] for col in cols]
        for i in range(self.degree - 1, -1, -1):
            Aa = mul(A, a)
            power *= su * sc
            A, B = (
                [t + (p + q) * sc for t, p, q in zip(mul(T, Aa), mul(A, b), mul(B, a))],
                [p * sc - t + col[i] * power for p, t, col in zip(mul(B, b), mul(N, Aa), cols)],
            )
        den = self.den * power
        return spec.ELEMENT(spec, A, den), spec.ELEMENT(spec, B, den)

    def eval_iterate(self, lam, n: int) -> Element:
        """n-fold repeated evaluation f(f(...f(lam)))."""
        if n < 1:
            raise ValueError("n must be at least 1")
        value = self.spec.coerce(lam)
        for _ in range(n):
            value = self(value)
        return value

    # -- quaternion-only structure ---------------------------------------------------

    def _require_associative(self, what: str) -> None:
        if not isinstance(self.spec, QuatSpec):
            raise UnsupportedAlgebraError(f"{what} needs an associative algebra")

    def conj_coeffs(self) -> Poly:
        """Apply the canonical involution to every coefficient."""
        self._require_associative("coefficient conjugation")
        return Poly(self.spec, [c.conj() for c in self.coeffs])

    def divmod_linear(self, lam) -> tuple[Poly, Element]:
        """Right-divide by (x - lam): f = q*(x - lam) + r with r = f(lam)."""
        self._require_associative("right division")
        lam = self.spec.coerce(lam)
        q, r = divmod_monic(self.coeffs, [-lam, self.spec.one()])
        return Poly(self.spec, q), r[0] if r else self.spec.zero()

    # -- equality and text ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.cols == other.cols and self.spec == other.spec

    def __hash__(self) -> int:
        return hash((self.spec, self.den, tuple(map(tuple, self.cols))))

    def render(self) -> str:
        """Canonical text: left coefficients parenthesized, descending powers.

        Each coefficient prints from its column slice over den; no element is built.
        """
        text, spec = self.spec.ELEMENT.text, self.spec
        parts = []
        for p in range(self.degree, -1, -1):
            nums = [col[p] for col in self.cols]
            if any(nums):
                power = "" if p == 0 else "*x" if p == 1 else f"*x^{p}"
                parts.append(f"({text(spec, nums, self.den)}){power}")
        return " + ".join(parts) or "(0)"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{self.render()} over {self.spec}>"


def divmod_monic(a, b) -> tuple[list, list]:
    """Quotient and remainder of the coefficient list a by the monic b.

    Lists run low degree first.  Each product is taken as (quotient
    coefficient) * (divisor coefficient), so over an associative algebra
    a = q*b + r is right division.  The remainder is the low len(b) - 1
    coefficients left over, zeros included.
    """
    r = list(a)
    n = len(b) - 1
    # each quotient coefficient is the top of what is left; it stays in place
    for k in range(len(r) - n - 1, -1, -1):
        f = r[k + n]
        for i in range(n):
            r[k + i] = r[k + i] - f * b[i]
    return r[n:], r[:n]


def _common(spec, pair) -> tuple[list[int], list[int], int]:
    """Numerators of the two values in pair over their least common denominator."""
    x, y = (spec.coerce(v) for v in pair)
    d = lcm(x.den, y.den)
    return [v * (d // x.den) for v in x.nums], [v * (d // y.den) for v in y.nums], d


def _reduced(cols: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """cols/den without trailing zero coefficients, divided by its content."""
    size = len(cols[0])
    while size and not any(col[size - 1] for col in cols):
        size -= 1
    if size < len(cols[0]):
        cols = [col[:size] for col in cols]
    g = 1 if den == 1 else gcd(den, *chain.from_iterable(cols))
    if g != 1:
        cols = [[v // g for v in col] for col in cols]
        den //= g
    return cols, den


def _add_columns(a, a_den: int, b, b_den: int) -> tuple[list[list[int]], int]:
    """a/a_den + b/b_den, as columns over one denominator."""
    den = lcm(a_den, b_den)
    sa, sb = den // a_den, den // b_den
    if len(a[0]) < len(b[0]):
        a, b, sa, sb = b, a, sb, sa
    out = [[v * sa for v in col] for col in a]
    for col, other in zip(out, b):
        for k, v in enumerate(other):
            col[k] += v * sb
    return out, den
