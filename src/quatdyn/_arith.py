"""Integer arithmetic for exact class extraction: primes, integer polynomials
and polynomials over F_p, each a list of integers, low degree first.  It
imports nothing from quatdyn, so every module may read it.

The squarefree part f / gcd(f, f') over Q comes from Brown's modular gcd:
images mod word-size primes joined by CRT and kept only when exact division
proves them.  The factors of degree <= 2 over Q of a squarefree P come from
one prime p that keeps P squarefree: P's roots in F_p and its irreducible
quadratics come from gcds with y**p - y and y**(p**2) - y, split by one
Cantor-Zassenhaus loop, and Newton's iteration lifts their roots p-adically
far enough that symmetric residues give the integer data of every such
factor (Cohen, GTM 138, ch. 1 and 3; von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 6, 14 and 15).
"""

from __future__ import annotations

import math
from itertools import count

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the primes below 2**30 (one CPython digit: the fastest), downwards, found once
_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve prime bases up to 37, exact below
    3.18 * 10**23 (Sorenson & Webster 2017), so on every word-size n."""
    if n < 41 or any(not n % a for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _WITNESSES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in [pow(x, 1 << i, n) for i in range(s)]:
            return False
    return True


def _prime(k: int) -> int:
    """The k-th prime below 2**30, counting down, from k = 0."""
    while len(_PRIMES) <= k:
        top = _PRIMES[-1] - 2 if _PRIMES else (1 << 30) - 1
        _PRIMES.append(next(q for q in range(top, 0, -2) if _is_prime(q)))
    return _PRIMES[k]


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


def _integer_squarefree(f: list[int]) -> list[int]:
    """The primitive squarefree part f / gcd(f, f') of a nonconstant integer
    polynomial, low degree first, with the sign of f's lead.

    Brown's modular gcd (J. ACM 18, 1971) of f and g = f'/content: monic gcds
    mod primes that divide neither lead, scaled to gcd(lead f, lead g).  An
    image has at least the true degree, so one of degree 0 proves f
    squarefree and one above the lowest seen is dropped.  The rest join by
    CRT, in symmetric residues, until a prime leaves the join unchanged and
    its primitive part divides f and g exactly: then it is the gcd.
    """
    f = _primitive(f)
    g = _primitive([i * c for i, c in enumerate(f)][1:])
    scale, image, m = math.gcd(f[-1], g[-1]), [], 1
    for p in map(_prime, count()):
        if not (f[-1] % p and g[-1] % p):
            continue
        h = _gf_gcd(_gf(f, p), _gf(g, p), p)
        if len(h) == 1:
            return f
        if not image or len(h) < len(image):
            image, m = [0] * len(h), 1
        elif len(h) > len(image):
            continue
        # Garner's step: the residue mod m*p that is v mod m and scale*c mod p
        inv = pow(m, -1, p)
        steps = [(scale * c - v) * inv % p for v, c in zip(image, h)]
        if any(steps):
            image, m = [v + m * t for v, t in zip(image, steps)], m * p
            image = [v - m if 2 * v > m else v for v in image]
            continue
        h = _primitive(image if image[-1] > 0 else [-v for v in image])
        if (part := _quotient(f, h)) is not None and _quotient(g, h) is not None:
            return part


def _primitive(f: list[int]) -> list[int]:
    """The nonzero f over the gcd of its coefficients."""
    c = math.gcd(*f)
    return f if c == 1 else [v // c for v in f]


def _quotient(f: list[int], h: list[int]) -> list[int] | None:
    """f / h when h divides f over Z, else None."""
    n, lead = len(h) - 1, h[-1]
    if len(f) <= n:
        return None
    r, q = list(f), [0] * (len(f) - n)
    for k in reversed(range(len(q))):
        c, rest = divmod(r[k + n], lead)
        if rest:
            return None
        if c:
            q[k] = c
            for i, v in enumerate(h[:n]):
                r[k + i] -= c * v
    return None if any(r[:n]) else q


def _gf(a: list[int], p: int) -> list[int]:
    """a mod p, without trailing zeros."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p, for a lead of b prime to p;
    a may be unreduced, and then the quotient may end in zeros."""
    n, r, inv = len(b) - 1, list(a), pow(b[-1], -1, p)
    q = [0] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + n] * inv % p
        if c:
            r[k : k + n] = [x - c * y for x, y in zip(r[k : k + n], b)]
    return q, _gf(r[:n], p)


def _gf_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    """a*b modulo m over F_p, by the plain convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        out[i : i + len(b)] = [v + x * y for v, y in zip(out[i : i + len(b)], b)]
    return _gf_divmod(out, m, p)[1]


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of a nonzero a and any b, both reduced mod p."""
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_power(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a**e modulo m over F_p, for e >= 2."""
    out = a
    for bit in bin(e)[3:]:
        out = _gf_mulmod(out, out, m, p)
        out = _gf_mulmod(out, a, m, p) if bit == "1" else out
    return out


def _local_factors(P: list[int]) -> tuple[int, list[int], list[list[int]]]:
    """The first prime p from 11 on that does not divide P's lead and keeps P
    squarefree mod p, P's roots in F_p, in order, and its monic irreducible
    quadratic factors over F_p.

    The product of P's factors of degree d is gcd(P, y**(p**d) - y) once those
    of lower degree are divided out.  One Cantor-Zassenhaus loop splits it for
    d = 1 and 2: modulo a factor h of degree d, (y + c)**((p**d - 1)/2) is the
    Legendre symbol of the norm of y + c, (-1)**d * h(-c), and two factors
    differ in it at some c in F_p (for d = 2 above 9, by Weil's bound)."""
    p, derivative = 11, [i * c for i, c in enumerate(P)][1:]
    while not (P[-1] % p and _is_prime(p)) or len(_gf_gcd(_gf(P, p), _gf(derivative, p), p)) > 1:
        p += 2
    rest, w, pieces, found = _gf(P, p), [0, 1], [], ([], [])
    for d in (1, 2):
        w = _gf_power(w, p, rest, p) + [0, 0]  # y**(p**d) modulo rest
        frob = w if d == 1 else frob  # y**p modulo P
        G = _gf_gcd(rest, _gf([w[0], w[1] - 1] + w[2:], p), p)
        rest = _gf_divmod(rest, G, p)[0]
        pieces += [(G, d, 0)] if len(G) > 1 else []
    while pieces:
        h, d, c = pieces.pop()
        if len(h) == d + 1:
            found[d - 1].append(h)
            continue
        # that symbol as N**((p - 1)/2) for the norm N: y + c, or (y + c)*(y**p + c)
        norm = [c, 1] if d == 1 else _gf_mulmod([c, 1], [frob[0] + c] + frob[1:], h, p)
        w = _gf_power(norm, (p - 1) // 2, h, p)
        s = _gf_gcd(h, _gf([w[0] - 1] + w[1:], p), p)
        split = [s, _gf_divmod(h, s, p)[0]] if 1 < len(s) < len(h) else [h]
        pieces += [(piece, d, c + 1) for piece in split]
    return p, sorted(-h[0] % p for h in found[0]), found[1]


def _lift(P: list[int], a: int, b: int, x: tuple[int, int], p: int, m: int) -> tuple[int, int]:
    """Newton's iteration on P from its simple root x = x0 + x1*Y mod p, in
    (Z/q)[Y]/(Y**2 - a*Y + b) for q = p**2, p**4, ... up to m.  A root in
    F_p has a = b = x1 = 0.  A unit u has the inverse conj(u)/N(u), with
    conj(Y) = a - Y, the other root of Y**2 - a*Y + b."""
    (x0, x1), q = x, p
    while q < m:
        q *= q
        v0 = v1 = d0 = d1 = 0  # P and P' at x by Horner
        for c in reversed(P):
            d0, d1 = (d0 * x0 - b * d1 * x1 + v0) % q, (d0 * x1 + d1 * x0 + a * d1 * x1 + v1) % q
            v0, v1 = (v0 * x0 - b * v1 * x1 + c) % q, (v0 * x1 + v1 * x0 + a * v1 * x1) % q
        inv = pow(d0 * d0 + a * d0 * d1 + b * d1 * d1, -1, q)
        e0, e1 = (d0 + a * d1) * inv, -d1 * inv  # 1/P'(x)
        x0, x1 = (x0 - v0 * e0 + b * v1 * e1) % q, (x1 - v0 * e1 - v1 * e0 - a * v1 * e1) % q
    return x0, x1


def _candidates(P: list[int]) -> tuple[int, list[list[int]]]:
    """The prime p of `_local_factors`, and primitive integer polynomials, of
    degree 1 and then 2, among them every factor of degree <= 2 over Q of the
    squarefree P.  Such a factor's lead divides l = P's lead (Gauss's lemma),
    so l*T and l*N of its roots are integers below |l|*(B + 1)**2, B being
    Cauchy's bound on the roots; and they are the symmetric residues of those
    of its one or two local factors, whose roots Hensel-lift uniquely modulo
    m > 2*|l|*(B + 1)**2."""
    p, roots, quadratics = _local_factors(P)
    lead, B = P[-1], 1 - max(map(abs, P[:-1])) // -abs(P[-1])
    m = p
    while m <= 2 * abs(lead) * (B + 1) ** 2:
        m *= m

    def scaled(v: int) -> int:  # l*v as a symmetric residue
        return (v * lead + m // 2) % m - m // 2

    lifted = [_lift(P, 0, 0, (r, 0), p, m)[0] for r in roots]
    pairs = [(r + s, r * s) for k, r in enumerate(lifted) for s in lifted[k + 1 :]]
    for q in quadratics:
        a, b = -q[1] % p, q[0]
        x0, x1 = _lift(P, a, b, (0, 1), p, m)
        pairs.append((2 * x0 + a * x1, x0 * x0 + a * x0 * x1 + b * x1 * x1))
    linear = [_primitive([-scaled(r), lead]) for r in lifted]
    return p, linear + [_primitive([scaled(N), -scaled(T), lead]) for T, N in pairs]
