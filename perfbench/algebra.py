"""Reference arithmetic for the benchmark's oracles and input generator.

Nothing here imports `quatdyn`.  Scalars are `Fraction` over Q and `QF`
(a + b*sqrt(d)) over Q(sqrt d).  Algebra elements are plain tuples: four
coordinates (1, i, j, k) for quaternions, eight (1, i, j, k, l, il, jl, kl)
for octonions.  Quaternion products expand an explicit 16-entry basis table
built from the defining relations; octonion products apply the doubling rule
(q + r*l)(s + t*l) = (q*s + gamma*conj(t)*r) + (t*q + r*conj(s))*l on pairs.
"""

from __future__ import annotations

import re
from fractions import Fraction


class QF:
    """Exact a + b*sqrt(d) with rational a, b."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d

    def _lift(self, o):
        return o if isinstance(o, QF) else QF(o, 0, self.d)

    def __add__(self, o):
        o = self._lift(o)
        return QF(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return QF(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __neg__(self):
        return QF(-self.a, -self.b, self.d)

    def __mul__(self, o):
        o = self._lift(o)
        return QF(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def inv(self):
        n = self.a * self.a - self.d * self.b * self.b
        return QF(self.a / n, -self.b / n, self.d)

    def __truediv__(self, o):
        return self * self._lift(o).inv()

    def __eq__(self, o):
        o = self._lift(o)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a or self.b)


class Algebra:
    """A (alpha, beta) quaternion algebra, or its doubling by gamma."""

    def __init__(self, alpha=-1, beta=-1, gamma=None, d=None):
        self.d = d
        self.alpha = self.scalar(alpha)
        self.beta = self.scalar(beta)
        self.gamma = None if gamma is None else self.scalar(gamma)
        self.dim = 4 if gamma is None else 8
        field = "Q" if d is None else f"Q(s{d})"
        params = [alpha, beta] + ([] if gamma is None else [gamma])
        kind = "quat" if gamma is None else "oct"
        self.text = f"{kind}:{','.join(str(p) for p in params)}@{field}"
        a, b = self.alpha, self.beta
        one = self.scalar(1)
        # (row, col) -> (target coordinate, factor), from i*i = alpha,
        # j*j = beta, k = i*j and j*i = -i*j
        self._table = {
            (0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one), (0, 3): (3, one),
            (1, 0): (1, one), (1, 1): (0, a), (1, 2): (3, one), (1, 3): (2, a),
            (2, 0): (2, one), (2, 1): (3, -one), (2, 2): (0, b), (2, 3): (1, -b),
            (3, 0): (3, one), (3, 1): (2, -a), (3, 2): (1, b), (3, 3): (0, -(a * b)),
        }

    def scalar(self, x):
        return Fraction(x) if self.d is None else QF(x, 0, self.d)

    def zero(self):
        return (self.scalar(0),) * self.dim

    def one(self):
        return (self.scalar(1),) + (self.scalar(0),) * (self.dim - 1)

    def const(self, s):
        return (s,) + (self.scalar(0),) * (self.dim - 1)

    def _qmul(self, x, y):
        out = [x[0] * 0] * 4
        for r in range(4):
            if not x[r]:
                continue
            for c in range(4):
                if y[c]:
                    t, f = self._table[(r, c)]
                    out[t] = out[t] + x[r] * y[c] * f
        return out

    @staticmethod
    def _qconj(x):
        return (x[0], -x[1], -x[2], -x[3])

    def mul(self, x, y):
        if self.dim == 4:
            return tuple(self._qmul(x, y))
        q, r, s, t = x[:4], x[4:], y[:4], y[4:]
        g = self.gamma
        first = [u + v * g for u, v in zip(self._qmul(q, s), self._qmul(self._qconj(t), r))]
        second = [u + v for u, v in zip(self._qmul(t, q), self._qmul(r, self._qconj(s)))]
        return tuple(first + second)

    def smul(self, s, x):
        return tuple(s * c for c in x)

    @staticmethod
    def add(x, y):
        return tuple(u + v for u, v in zip(x, y))

    @staticmethod
    def sub(x, y):
        return tuple(u - v for u, v in zip(x, y))

    def conj(self, x):
        return (x[0],) + tuple(-c for c in x[1:])

    def norm(self, x):
        """x * conj(x), which is central in a composition algebra."""
        return self.mul(x, self.conj(x))[0]

    def commutes(self, x, y) -> bool:
        return self.mul(x, y) == self.mul(y, x)

    # -- polynomials: coefficient lists, index = power ---------------------

    def pmul(self, f, g):
        out = [self.zero()] * (len(f) + len(g) - 1)
        for i, c in enumerate(f):
            for j, e in enumerate(g):
                out[i + j] = self.add(out[i + j], self.mul(c, e))
        return out

    def padd(self, f, g):
        n = max(len(f), len(g))
        z = self.zero()
        return [self.add(f[i] if i < len(f) else z, g[i] if i < len(g) else z) for i in range(n)]

    def trim(self, f):
        f = list(f)
        while f and not any(f[-1]):
            f.pop()
        return f

    def evaluate(self, f, lam):
        """sum c_i lam^i with left-nested powers."""
        acc, power = self.zero(), self.one()
        for c in f:
            acc = self.add(acc, self.mul(c, power))
            power = self.mul(power, lam)
        return acc

    def eval_iterate(self, f, lam, n):
        values = []
        for _ in range(n):
            lam = self.evaluate(f, lam)
            values.append(lam)
        return values

    def composite_values(self, f, lam, n):
        """Values at lam of the 1..n-fold compositions f(f(...)), by
        iterating in A[x]/(x^2 - T*x + N) with (T, N) the class of lam.

        The modulus is central, so reduction commutes with products and with
        left scalars, and a polynomial's value at lam depends only on its
        residue; no composite is ever built.
        """
        T = lam[0] + lam[0]
        N = self.norm(lam)
        z = self.zero()

        def qmul(u, v):  # (p x + q)(r x + s), x^2 = T x - N
            (p, q), (r, s) = u, v
            pr = self.mul(p, r)
            return (
                self.add(self.smul(T, pr), self.add(self.mul(p, s), self.mul(q, r))),
                self.sub(self.mul(q, s), self.smul(N, pr)),
            )

        def apply(g):  # sum c_i g^i, g^i left-nested
            acc = (z, f[0])
            power = None
            for c in f[1:]:
                power = g if power is None else qmul(power, g)
                acc = (self.add(acc[0], self.mul(c, power[0])), self.add(acc[1], self.mul(c, power[1])))
            return acc

        g = apply((self.one(), z))  # f mod m
        values = []
        for k in range(n):
            if k:
                g = apply(g)
            values.append(self.add(self.mul(g[0], lam), g[1]))
        return values

    # -- text ---------------------------------------------------------------

    def render_scalar(self, s) -> str:
        if isinstance(s, QF):
            if not s.b:
                return str(s.a)
            return f"({s.a} + {s.b}*s{self.d})"
        return str(s)

    def render(self, x) -> str:
        names = BASIS[: self.dim]
        parts = [f"{self.render_scalar(c)}*{n}" if n else self.render_scalar(c)
                 for c, n in zip(x, names) if c]
        return "(" + (" + ".join(parts) if parts else "0") + ")"

    def render_poly(self, f) -> str:
        return " + ".join(f"{self.render(c)}*x^{i}" for i, c in enumerate(f) if any(c)) or "0"


BASIS = ("", "i", "j", "k", "l", "il", "jl", "kl")

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([a-z]+\d*)|([-+*^()]))")


class ParseFailure(ValueError):
    pass


def parse(text: str, alg: Algebra):
    """Parse the quatdyn expression grammar into a coefficient list.

    Written against the grammar, not the program's parser, so that the
    program's rendering is checked by an independent reader.  Polynomials are
    {power: element} dicts while parsing.
    """
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseFailure(f"bad character at {pos} in {text[:60]!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append(None)
    state = [0]

    def peek():
        return tokens[state[0]]

    def take():
        tok = tokens[state[0]]
        state[0] += 1
        return tok

    def neg(v):
        return {p: alg.smul(-1, c) for p, c in v.items()}

    def mul(v, w):
        out = {}
        for p, c in v.items():
            for q, e in w.items():
                prod = alg.mul(c, e)
                out[p + q] = alg.add(out[p + q], prod) if p + q in out else prod
        return out

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()
            w = term()
            for p, c in (w if op == "+" else neg(w)).items():
                v[p] = alg.add(v[p], c) if p in v else c
        return v

    def term():
        v = factor()
        while peek() == "*":
            take()
            v = mul(v, factor())
        return v

    def factor():
        v = atom()
        if peek() == "^":
            take()
            e = take()
            if e is None or not e.isdigit():
                raise ParseFailure("bad exponent")
            e = int(e)
            if v == {1: alg.one()}:
                return {e: alg.one()}
            out = {0: alg.one()}
            for _ in range(e):
                out = mul(out, v)
            v = out
        return v

    def atom():
        tok = take()
        if tok is None:
            raise ParseFailure("unexpected end")
        if tok[0].isdigit():
            return {0: alg.const(alg.scalar(Fraction(tok)))}
        if tok == "(":
            v = expr()
            if take() != ")":
                raise ParseFailure("expected )")
            return v
        if tok == "-":
            return neg(atom())
        if tok == "x":
            return {1: alg.one()}
        if re.fullmatch(r"s\d+", tok):
            if alg.d is None or int(tok[1:]) != alg.d:
                raise ParseFailure(f"radical {tok} outside the field")
            return {0: alg.const(QF(0, 1, alg.d))}
        if tok in BASIS[1: alg.dim]:
            e = [alg.scalar(0)] * alg.dim
            e[BASIS.index(tok)] = alg.scalar(1)
            return {0: tuple(e)}
        raise ParseFailure(f"unexpected token {tok!r}")

    value = expr()
    if peek() is not None:
        raise ParseFailure(f"trailing input {peek()!r}")
    degree = max(value, default=-1)
    return alg.trim([value.get(p, alg.zero()) for p in range(degree + 1)])


def parse_element(text: str, alg: Algebra):
    f = parse(text, alg)
    if len(f) > 1:
        raise ParseFailure("expected a point")
    return f[0] if f else alg.zero()
