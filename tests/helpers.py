"""Shared test oracles and samplers.

The multipliers here are deliberately independent of the package internals:
quaternion products are expanded over an explicit 16-entry basis table built
from the defining relations, and octonion products apply the doubling rule to
pairs on top of that table.  Tests cross-check library arithmetic against
these routes.  One runner calls the CLI in-process, and one reader turns a
Poly into the coordinates of the benchmark's independent algebra.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from fractions import Fraction

from quatdyn import FieldSpec, Poly, QuatSpec, Scalar
from quatdyn.cli import main


def table_qmul(alpha, beta, x, y):
    """Multiply two 4-tuples by expanding all 16 basis products.

    Table rows follow from i*i = alpha, j*j = beta, j*i = -i*j, k = i*j:
    moving i past j flips a sign, squares contract to alpha and beta.
    """
    one = alpha - alpha + 1  # multiplicative unit of whatever scalar type
    table = {
        (0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one), (0, 3): (3, one),
        (1, 0): (1, one), (1, 1): (0, alpha), (1, 2): (3, one), (1, 3): (2, alpha),
        (2, 0): (2, one), (2, 1): (3, -one), (2, 2): (0, beta), (2, 3): (1, -beta),
        (3, 0): (3, one), (3, 1): (2, -alpha), (3, 2): (1, beta),
        (3, 3): (0, -(alpha * beta)),
    }
    out = [x[0] - x[0]] * 4
    for b1 in range(4):
        for b2 in range(4):
            target, coeff = table[(b1, b2)]
            out[target] = out[target] + x[b1] * y[b2] * coeff
    return tuple(out)


def table_qconj(x):
    return (x[0], -x[1], -x[2], -x[3])


def pair_omul(alpha, beta, gamma, x, y):
    """Doubling product on 8-tuples: (q + r*l)(s + t*l)."""
    q, r = x[:4], x[4:]
    s, t = y[:4], y[4:]
    first = tuple(
        a + b * gamma
        for a, b in zip(
            table_qmul(alpha, beta, q, s),
            table_qmul(alpha, beta, table_qconj(t), r),
        )
    )
    second = tuple(
        a + b
        for a, b in zip(
            table_qmul(alpha, beta, t, q),
            table_qmul(alpha, beta, r, table_qconj(s)),
        )
    )
    return first + second


def tuple_poly_mul(mul, f, g, zero):
    """Convolution of coefficient-tuple lists with an injected multiplier."""
    out = [zero] * (len(f) + len(g) - 1)
    for i, ci in enumerate(f):
        for j, dj in enumerate(g):
            prod = mul(ci, dj)
            out[i + j] = tuple(a + b for a, b in zip(out[i + j], prod))
    return out


def sqrt_bracket(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rigorous rational bracket [lo, hi] around sqrt(n) of width <= 2**-bits.

    Newton iteration x -> (x + n/x)/2 from above; n/x is then a lower bound.
    """
    x = Fraction(n)
    target = Fraction(1, 2**bits)
    while x - Fraction(n) / x > target:
        x = (x + Fraction(n) / x) / 2
    return Fraction(n) / x, x


# -- random samplers (seeded by each test) ---------------------------------------


def rand_fraction(rng: random.Random, span: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_scalar(rng: random.Random, field: FieldSpec, span: int = 3, den: int = 3):
    if field.is_rational:
        return field.scalar(rand_fraction(rng, span, den))
    return field.scalar(rand_fraction(rng, span, den), rand_fraction(rng, span, den))


def rand_quat(rng: random.Random, spec, span: int = 2, den: int = 1):
    return spec.element(
        *(rand_scalar(rng, spec.field, span, den) for _ in range(4))
    )


def rand_oct(rng: random.Random, spec, span: int = 2, den: int = 1):
    return spec.element(
        rand_quat(rng, spec.quat, span, den), rand_quat(rng, spec.quat, span, den)
    )


def rand_nonzero(draw, *args, **kwargs):
    for _ in range(64):
        v = draw(*args, **kwargs)
        if not v.is_zero:
            return v
    raise AssertionError("sampler kept drawing zero")


def rand_poly(rng: random.Random, spec, degree: int, span: int = 2, den: int = 1):
    draw = rand_oct if hasattr(spec, "gamma") else rand_quat
    coeffs = [draw(rng, spec, span, den) for _ in range(degree)]
    coeffs.append(rand_nonzero(draw, rng, spec, span, den))
    return Poly(spec, coeffs)


def rand_subfield_pair(rng: random.Random, spec: QuatSpec, span: int = 2):
    """A commutative-subfield generator w and a sampler for F(w) elements.

    F(w) = {s + t*w} is closed under products because w*w = Tr(w)*w - Norm(w).
    """
    w = rand_nonzero(rand_quat, rng, spec, span)

    def sample():
        s = rand_scalar(rng, spec.field, span, 1)
        t = rand_scalar(rng, spec.field, span, 1)
        return spec.coerce(s) + w * t

    return w, sample


def rand_solvable_poly(rng: random.Random, spec: QuatSpec, degree: int) -> Poly:
    """A polynomial whose companion factors completely over Q.

    Built as a product of linear factors (x - z) with small integer-coordinate
    roots, optionally scaled by a nonzero constant on the left; every factor
    contributes the rational class (trace z, norm z) to the companion.
    """
    f = Poly.constant(spec, 1)
    for _ in range(degree):
        z = rand_quat(rng, spec, span=2, den=1)
        f = f * (Poly.x(spec) - z)
    if rng.random() < 0.5:
        c = rand_nonzero(rand_quat, rng, spec, span=1)
        while not c.norm():
            c = rand_nonzero(rand_quat, rng, spec, span=1)
        f = Poly.constant(spec, c) * f
    return f


# -- the Fraction-based printer, as the reference for the kernel's text -----------
# (`_text`, `Scalar.render` and `render_terms` as they were before text was
# printed from the kernel's numerators; `reference_render` dispatches, and
# renders a Poly as `Poly.render` did)


def _text(q: Fraction) -> str:
    """str(q) with every digit, past CPython's int-to-text limit too.

    An exact value renders in full; the limit is lifted for that one
    conversion only, and only when it is hit.
    """
    try:
        return str(q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(q)
        finally:
            sys.set_int_max_str_digits(limit)


def render_scalar(self) -> str:
    """Canonical text form: `p/q`, `p/q + r/s*s5`, `s5`, `-s5`, ..."""
    a, b = self.a, self.b
    if b == 0:
        return _text(a)
    tok = f"s{self.spec.d}"
    mag = abs(b)
    bterm = tok if mag == 1 else f"{_text(mag)}*{tok}"
    if a == 0:
        return bterm if b > 0 else f"-{bterm}"
    op = " + " if b > 0 else " - "
    return f"{_text(a)}{op}{bterm}"


def render_terms(terms) -> str:
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
            neg, mag = False, f"({render_scalar(coeff)})"
        else:
            neg = min(coeff.nums) < 0
            mag = render_scalar(-coeff if neg else coeff)
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


def reference_render(x) -> str:
    """The reference text of a scalar, an algebra element or a Poly."""
    if isinstance(x, Scalar):
        return render_scalar(x)
    if not isinstance(x, Poly):
        return render_terms(list(zip(x.coords(), x.BASIS)))
    if x.is_zero:
        return "(0)"
    parts = []
    for p in range(x.degree, -1, -1):
        c = x.coeffs[p]
        if c.is_zero:
            continue
        if p == 0:
            parts.append(f"({reference_render(c)})")
        elif p == 1:
            parts.append(f"({reference_render(c)})*x")
        else:
            parts.append(f"({reference_render(c)})*x^{p}")
    return " + ".join(parts)


# -- the CLI in-process, and the benchmark's coordinates ----------------------------


def run_cli(argv, entry=main):
    """(exit code, stdout) of one call of `entry`, the CLI's `main` by default."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = entry(argv)
    return code, buf.getvalue()


def coordinates(poly, alg):
    """The coefficients of a Poly as the coordinate tuples of `alg`, an
    `Algebra` of `perfbench/algebra.py`: Fractions over Q, its `QF` over Q(sqrt d)."""
    from algebra import QF  # perfbench/ is on the path of every caller

    w, den = poly.spec.table.width, poly.den
    return [
        tuple(
            Fraction(nums[k], den)
            if alg.d is None
            else QF(Fraction(nums[k], den), Fraction(nums[k + 1], den), alg.d)
            for k in range(0, len(nums), w)
        )
        for nums in zip(*poly.cols)
    ]
