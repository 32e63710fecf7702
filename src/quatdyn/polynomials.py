"""Left polynomials over a quaternion or octonion algebra, or over the ground
field itself (the companion polynomials of the solver).

Coefficients sit on the left of a central variable: f(x) = sum c_i x^i, and a
`Poly` holds them as integer coordinate columns over one denominator.
Multiplication is the convolution with coefficient products taken in written
order, and substitution f(lam) = sum c_i lam^i is *not* a ring homomorphism.
Two different iterations therefore coexist and are kept apart throughout:

  compose_iterate(n)   the polynomial f(f(...)), outer copy applied last;
  eval_iterate(lam, n) the value f(f(...f(lam))), plain repeated evaluation.

They agree when lam commutes with the intermediate values and differ in
general.  Composition of polynomials is itself non-associative over a
noncommutative coefficient algebra, so the outer-application order above is
part of the contract.

Both step through one loop, `_kernel._bounded`, which bounds their work, and
each has one stream of values at a point lam: `eval_values` and
`composite_values`.  The second builds no composite: `_residue` evaluates f
in A[x]/(x^2 - T*x + N), (T, N) the trace and norm of lam, at any residue u,
from that of x; `reduction` (f(z) = A*z + B) at x, on scalar products.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from itertools import chain, islice
from math import gcd, lcm

from ._kernel import Element, RationalLike, Spec, _at_least_one, _bounded, lifted, power
from .errors import SpecMismatchError, UnsupportedAlgebraError
from .octonions import OctSpec


class Poly:
    """Dense left-coefficient polynomial, stored as its coordinate columns.

    cols[p][i] / den is coordinate p of the coefficient of x^i, over one
    positive den, with no trailing zero coefficient and content 1 (the gcd of
    den and every numerator): a unique form, so it decides equality.  The
    lists are never mutated.  `coeffs` builds the elements on first use.
    """

    __slots__ = ("spec", "cols", "den", "_coeffs")

    spec: Spec
    cols: list[list[int]]
    den: int

    def __init__(self, spec: Spec, coeffs=()) -> None:
        cs = [spec.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        # each coefficient is in lowest terms, so over their lcm the content is 1
        den = lcm(*(c.den for c in cs))
        rows = [c.nums if c.den == den else [v * (den // c.den) for v in c.nums] for c in cs]
        cols = [list(col) for col in zip(*rows)] or [[] for _ in range(spec.table.dim)]
        self._set(spec, cols, den, tuple(cs))

    @classmethod
    def from_cols(cls, spec: Spec, cols, den: int) -> Poly:
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
    def constant(cls, spec: Spec, value) -> Poly:
        c = spec.coerce(value)
        return cls.from_cols(spec, [[v] for v in c.nums], c.den)

    @classmethod
    def x(cls, spec: Spec) -> Poly:
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
        if isinstance(other, (Element,) + RationalLike):
            return Poly.constant(self.spec, other)
        return None

    # -- ring operations ---------------------------------------------------------

    @lifted
    def __add__(self, o) -> Poly:
        return Poly.from_cols(self.spec, *_add_columns(self.cols, self.den, o.cols, o.den))

    __radd__ = __add__

    @lifted
    def __sub__(self, o) -> Poly:
        return self + -o

    @lifted
    def __rsub__(self, o) -> Poly:
        return o - self

    def __neg__(self) -> Poly:
        return Poly.from_cols(self.spec, [[-v for v in col] for col in self.cols], self.den)

    @lifted
    def __mul__(self, o) -> Poly:
        if self.is_zero or o.is_zero:
            return Poly(self.spec)
        table = self.spec.table
        # a square passes one column list twice, for the packed square
        cols = table.poly_mul(self.cols, o.cols)
        return Poly.from_cols(self.spec, cols, self.den * o.den * table.den)

    @lifted
    def __rmul__(self, o) -> Poly:
        return o * self

    def __pow__(self, t: int) -> Poly:
        """Power by repeated squaring, equal to the left-nested (f*f)*f...

        A[x] is alternative when A is (x is central), so by Artin's theorem
        every nesting of a power agrees, over octonions too.
        """
        return power(self, t, Poly.constant(self.spec, 1), "polynomial")

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
        m = deg f, in one pass (which products it packs, and at what slot,
        is its rule), and the sum is reduced once.
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
        """n-fold self-composition, the outer copy applied last at each step:
        f itself for n = 1 or a constant f, else step n - 1 of `_bounded`,
        DegreeCapError before a composite past its steps, degree, height or work."""
        _at_least_one(n=n)
        if n == 1 or self.degree < 1:
            return self
        return next(islice(_bounded(self, self.compose, self), n - 2, None))

    def _residue(self, u, modulus) -> tuple[list[int], list[int], int]:
        """The residue of f(u) = sum c_i u^i in A[x]/(x^2 - T*x + N), by Horner's rule.

        u = (a, b, du) stands for (a*x + b) / du, a and b the numerators of two
        elements over one du > 0, and so does the triple returned, with content 1;
        the modulus (T, N, dc) holds the numerators of trace and norm over dc,
        padded to an element's coordinates, as a and b are.  T and N
        lie in the ground field, so the modulus is central and reduction
        modulo it is a homomorphism, over octonions too: the residue of f(g) is
        f at the residue of g, and every polynomial with residue a*x + b takes
        the value a*lam + b at each lam of trace T and norm N.  The residue ring
        is alternative, so Horner's rule gives sum c_i u^i term by term, as in
        `__call__`: each step multiplies by u with x*x = T*x - N, 6 products, on
        integers over den(f) times a power of su * sc, reduced once, at the end.
        """
        table, cols = self.spec.table, self.cols
        mul, dim = table.mul, table.dim
        if self.is_zero:
            return [0] * dim, [0] * dim, 1
        (a, b, du), (T, N, dc) = u, modulus
        # a product by a or b scales the denominator by su, one by T or N by sc
        su, sc = du * table.den, dc * table.den
        power = 1
        A, B = [0] * dim, [col[-1] for col in cols]
        for i in range(self.degree - 1, -1, -1):
            Aa = mul(A, a)
            power *= su * sc
            A, B = (
                [t + (p + q) * sc for t, p, q in zip(mul(T, Aa), mul(A, b), mul(B, a))],
                [p * sc - t + col[i] * power for p, t, col in zip(mul(B, b), mul(N, Aa), cols)],
            )
        den = self.den * power
        g = gcd(den, *A, *B)
        return (A, B, den) if g == 1 else ([v // g for v in A], [v // g for v in B], den // g)

    def composite_values(self, lam) -> Iterator[Element]:
        """Yield the k-fold composition evaluated at lam, for k = 1, 2, ...: u <- f(u)
        from u = x (`_residue`) through `_bounded`, with the modulus read off lam's
        numerators once, T twice its ground-field part and N its norm form with
        itself, over den(lam)^2 * den(table).  The k-th residue (a*x + b) / den
        gives the value (a*lam + b) / den, one element per step."""
        spec, lam = self.spec, self.spec.coerce(lam)
        table, nums, den = spec.table, lam.nums, lam.den
        form, pad = table.norm_form, [0] * (table.dim - table.width)
        T = [2 * v * den * form.den for v in nums[: table.width]] + pad
        step = partial(self._residue, modulus=(T, form.mul(nums, nums) + pad, den * den * form.den))
        s = den * table.den  # a*lam over den(a) * s, b scaled to it
        x = ([1] + [0] * (table.dim - 1), [0] * table.dim, 1)  # the residue of x
        return (spec.ELEMENT(spec, [p + q * s for p, q in zip(table.mul(a, nums), b)], d * s)
                for a, b, d in _bounded(self, step, x))

    def reduction(self, trace, norm) -> tuple[Element, Element]:
        """A and B of f(z) = A*z + B at each z of trace `trace` and norm `norm`,
        two ground-field values (else TypeError).  Modulo the central
        x^2 - T*x + N, (A*x + B)*x = (T*A + B)*x - N*A: with T and N over one d,
        Horner's rule steps the numerators over den(f) * d**k as (A, B) <-
        (T*A + d*B, c_i*d**k - N*A), on scalar products only, reduced at the end."""
        spec, (t, n) = self.spec, map(self.spec.field.coerce, (trace, norm))
        d, cols, w, mul = lcm(t.den, n.den), self.cols, spec.table.width, spec.field.table.mul
        T, N = ([v * (d // c.den) for v in c.nums] for c in (t, n))
        A, B, power = [0] * len(cols), [col[-1] if col else 0 for col in cols], 1
        for i in range(self.degree - 1, -1, -1):
            power *= d
            TA, NA = _scalar_times(mul, w, T, A), _scalar_times(mul, w, N, A)
            A, B = [p + d * q for p, q in zip(TA, B)], [col[i] * power - q for col, q in zip(cols, NA)]
        return spec.ELEMENT(spec, A, self.den * power), spec.ELEMENT(spec, B, self.den * power)

    def eval_values(self, lam) -> Iterator[Element]:
        """Yield the k-fold repeated evaluation f(f(...f(lam))), for k = 1, 2, ...,
        through `_bounded`: DegreeCapError before a step past MAX_STEPS or HEIGHT_BUDGET."""
        return _bounded(self, self, self.spec.coerce(lam))

    def eval_iterate(self, lam, n: int) -> Element:
        """n-fold repeated evaluation f(f(...f(lam))): value n of `eval_values`."""
        _at_least_one(n=n)
        return next(islice(self.eval_values(lam), n - 1, None))

    # -- associative structure -------------------------------------------------------

    def _require_associative(self, what: str) -> None:
        if isinstance(self.spec, OctSpec):
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

        Each coefficient prints from its row of one zip of the columns over
        den; no element is built.
        """
        text, spec, den = self.spec.ELEMENT.text, self.spec, self.den
        parts = [
            f"({text(spec, row, den)}){'' if p == 0 else '*x' if p == 1 else f'*x^{p}'}"
            for p, row in enumerate(zip(*self.cols))
            if any(row)
        ]
        return " + ".join(reversed(parts)) or "(0)"

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


def _scalar_times(mul, w: int, c: list[int], X: list[int]) -> list[int]:
    """Numerators of the scalar c times each coordinate of X: integer products over Q
    (width w = 1), else the field's table `mul` on each pair."""
    return [c[0] * v for v in X] if w == 1 else [v for k in range(0, len(X), w) for v in mul(c, X[k : k + w])]


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
