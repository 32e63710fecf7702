"""Output checks for every call kind, independent of the code under test.

`check(call, code, out, memo)` returns a list of problems (empty when the
output is right) and may append sympy checks to `memo.deferred`; those run
after the timed phase, through `run_deferred`.

The ground truth comes from `algebra`: composites are evaluated at central
points, where evaluation is a homomorphism, and compared with repeated
evaluation; values of iterated compositions at a point come from iterating in
the quotient by the point's (central) minimal polynomial; roots are verified
by exact substitution, and class lists by exact division of the companion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from algebra import QF, Algebra, ParseFailure, parse, parse_element

USAGE_EXIT = 2
INCOMPLETE = "ClassSearchIncompleteError"


@dataclass
class Memo:
    """State shared by the checks of one run."""

    deferred: list = field(default_factory=list)
    oct_check: dict = field(default_factory=dict)


def check(call, code, out, memo: Memo) -> list[str]:
    if call.kind == "golden":
        ok = code == call.data["exit"] and out == call.data["stdout"]
        return [] if ok else ["golden output differs byte-wise"]
    try:
        payload = json.loads(out)
    except ValueError:
        return ["stdout is not one JSON document"]
    try:
        return CHECKS[call.kind](call, code, payload, memo)
    except (KeyError, TypeError, IndexError, ParseFailure, ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _error_type(payload):
    return payload.get("error", {}).get("type")


def _usage_error(call, code, payload, memo):
    if code == USAGE_EXIT and "error" in payload:
        return []
    return [f"expected a usage error (exit 2), got exit {code}"]


# -- iterate --------------------------------------------------------------------


def _compose(call, code, payload, memo):
    alg: Algebra = call.data["alg"]
    f, n = call.data["f"], call.data["n"]
    if code != 0:
        return [f"exit {code}"]
    deg = len(f) - 1
    result = payload["result"]
    comp = parse(result["poly"], alg)
    problems = []
    if result["degree"] != deg**n or len(comp) - 1 != deg**n:
        problems.append(f"degree {result['degree']} != {deg}**{n}")
    if parse(payload["inputs"]["poly"], alg) != f or payload["inputs"]["n"] != n:
        problems.append("inputs echoed wrongly")
    for t in call.data["points"]:
        lam = alg.const(alg.scalar(t))
        value = alg.zero()
        for c in reversed(comp):  # Horner: t is central
            value = alg.add(alg.smul(t, value), c)
        if value != alg.eval_iterate(f, lam, n)[-1]:
            problems.append(f"composite at {t} differs from repeated evaluation")
    return problems


def _orbit(call, code, payload, memo):
    alg: Algebra = call.data["alg"]
    f, lam, n_max = call.data["f"], call.data["lam"], call.data["n_max"]
    if code != 0:
        return [f"exit {code}"]
    if call.data["semantics"] == "eval":
        want = alg.eval_iterate(f, lam, n_max)
    else:
        want = alg.composite_values(f, lam, n_max)
    result = payload["result"]
    got = [parse_element(p, alg) for p in result["points"]]
    problems = []
    if got != want:
        problems.append("orbit points differ")
    if result["commutes_with_start"] != [alg.commutes(lam, p) for p in want]:
        problems.append("commutation flags differ")
    return problems


# -- periodic ---------------------------------------------------------------------

DEGREE_CAP = 4096


def _fixed_inputs(call):
    alg: Algebra = call.data["alg"]
    if "f" in call.data:
        return alg, call.data["f"], call.data["lam"]
    return alg, parse(call.data["f_text"], alg), parse_element(call.data["lam_text"], alg)


def _oct_check(call, code, payload, memo):
    alg, f, lam = _fixed_inputs(call)
    n_max = call.data["n_max"]
    if code != 0:
        return [f"exit {code}"]
    values = alg.composite_values(f, lam, n_max)
    if values[0] != lam:
        want = {"fixed": False, "checked_up_to": 1, "first_failure": 1}
    else:
        bad = next((n for n in range(2, n_max + 1) if values[n - 1] != lam), None)
        want = {"fixed": True, "checked_up_to": bad or n_max, "first_failure": bad}
    got = payload["result"]
    memo.oct_check[(alg.text, tuple(f), lam, n_max)] = got.get("first_failure")
    return [] if got == want else [f"oct-check {got} != {want}"]


def expected_verdict(alg: Algebra, f, lam, r, n_max):
    """(status, refuted_at) that an exact decision procedure must report.

    r-fixedness and refutations come from composite values at lam.  A
    `fixed_point` or `certified_periodic` verdict claims every multiple of r;
    when a composite within the n_max*r-fold search moves the point (possible
    over the non-associative octonions) the right answer is the refutation.
    """
    deg = len(f) - 1
    reach = n_max * r
    if deg >= 2:
        reach = min(reach, int(math.log(DEGREE_CAP, deg) + 1e-9))
    values = alg.composite_values(f, lam, max(reach, r))
    if deg >= 2 and deg**r > DEGREE_CAP or values[r - 1] != lam:
        return "inconclusive", None
    for n in range(2, n_max + 1):
        if n * r <= len(values) and values[n * r - 1] != lam:
            return "refuted_at", n
    if r == 1:
        return "fixed_point", None
    flags, value = [], lam
    for _ in range(r - 1):
        value = alg.evaluate(f, value)
        flags.append(alg.commutes(lam, value))
    return ("certified_periodic" if all(flags) else "inconclusive"), None


def _check_periodic(call, code, payload, memo):
    alg, f, lam = _fixed_inputs(call)
    r, n_max = call.data["r"], call.data["n_max"]
    if code != 0:
        return [f"exit {code}"]
    got = payload["result"]
    problems = []
    status, refuted_at = expected_verdict(alg, f, lam, r, n_max)
    if (got["status"], got["refuted_at"]) != (status, refuted_at):
        problems.append(f"verdict {got['status']}/{got['refuted_at']} != {status}/{refuted_at}")
    failure = memo.oct_check.get((alg.text, tuple(f), lam, n_max))
    if r == 1 and got["status"] == "fixed_point" and failure is not None:
        problems.append(f"fixed_point while oct-check reports first_failure={failure}")
    return problems


# -- roots ------------------------------------------------------------------------


def companion(alg: Algebra, g):
    """conj(g)*g as a list of ground-field scalars."""
    prod = alg.pmul([alg.conj(c) for c in g], g)
    if any(any(c[1:]) for c in prod):
        raise AssertionError("companion left the ground field")
    return [c[0] for c in prod]


def _divide_out(C, T, N):
    """Divide C by x^2 - T x + N as often as it divides exactly."""
    while len(C) > 2:
        rem = list(C)
        q = [None] * (len(C) - 2)
        for k in range(len(C) - 3, -1, -1):
            lead = rem[k + 2]
            q[k] = lead
            rem[k + 1] = rem[k + 1] + T * lead
            rem[k] = rem[k] - N * lead
        if rem[0] or rem[1]:
            break
        C = q
    return C


def _reduction(alg, g, T, N):
    """g = A z + B inside the class x^2 = T x - N."""
    p, q = alg.scalar(0), alg.scalar(1)
    A, B = alg.zero(), alg.zero()
    for c in g:
        A, B = alg.add(A, alg.smul(p, c)), alg.add(B, alg.smul(q, c))
        p, q = T * p + q, -N * p
    return A, B


def _scalar(text, alg):
    e = parse_element(text, alg)
    if any(e[1:]):
        raise ParseFailure(f"class datum {text!r} is not a scalar")
    return e[0]


def _real(s) -> float:
    """float of a + b*sqrt(d) without cancellation."""
    if not isinstance(s, QF):
        return float(s)
    root = Fraction(isqrt(s.d << 512), 1 << 256)
    return float(s.a + s.b * root)


def _magnitude(alg, x) -> float:
    return math.sqrt(sum(_real(c) ** 2 for c in x))


def _solve(call, code, payload, memo):
    alg: Algebra = call.data["alg"]
    g, mode = call.data["g"], call.data["mode"]
    C = companion(alg, g)
    if code == 1 and mode == "exact" and _error_type(payload) == INCOMPLETE:
        memo.deferred.append(("irreducible", call, C))
        return []
    if code != 0:
        return [f"exit {code} ({_error_type(payload)})"]
    sols = payload["result"]
    problems = []
    classes = []
    for sol in sols:
        T, N = _scalar(sol["class"]["trace"], alg), _scalar(sol["class"]["norm"], alg)
        classes.append((T, N))
        problems += _check_solution(call, alg, g, sol, T, N)
    if mode == "exact":
        lead = C[-1]
        rest = [c / lead for c in C]
        for T, N in classes:
            rest = _divide_out(rest, T, N)
        if len(rest) > 1:
            problems.append(f"classes leave a companion factor of degree {len(rest) - 1}")
        missing = [tn for tn in call.data["classes"] if tn not in classes]
        if missing:
            problems.append(f"planted classes missing: {len(missing)}")
    else:
        problems += _numeric_classes(C, classes)
        memo.deferred.append(("class_count", call, (C, classes)))
    return problems


def _check_solution(call, alg, g, sol, T, N):
    kind = sol["variant"]
    exact = call.data["mode"] == "exact"
    central = T * T == 4 * N
    if kind == "point":
        z = parse_element(sol["point"], alg)
        if exact:
            if any(alg.evaluate(g, z)) or z[0] + z[0] != T or alg.norm(z) != N:
                return ["exact point is not a root in its class"]
            if call.data["cmd"] == "fixed-points" and alg.evaluate(call.data["f"], z) != z:
                return ["fixed point is not fixed"]
            return []
        residual = _magnitude(alg, alg.evaluate(g, z))
        scale = 1 + max(_magnitude(alg, c) for c in g)
        reported = sol["residual"]
        # the program rounds Q(sqrt d) coordinates to multiples of 2**-128
        if abs(residual - reported) > 1e-6 * residual + 2.0**-126:
            return [f"residual {reported} != recomputed {residual}"]
        if residual > 1e-9 * scale:
            return ["numeric point outside tolerance"]
        return []
    if not exact:
        return [] if kind in ("sphere", "none") else [f"numeric {kind}"]
    if kind == "sphere":
        A, B = _reduction(alg, g, T, N)
        return [] if not central and not any(A) and not any(B) else ["false sphere"]
    if kind == "none":
        if central:
            ok = any(alg.evaluate(g, alg.const(T / 2)))
        else:
            A, B = _reduction(alg, g, T, N)
            ok = not any(A) and any(B)
        return [] if ok else ["class reported empty holds a root"]
    return [f"exact mode reported {kind}"]


def _numeric_classes(C, classes):
    """Each class quadratic's root must be an approximate root of C."""
    problems = []
    coeffs = [_real(c) for c in C]
    for T, N in classes:
        t, n = _real(T), _real(N)
        disc = t * t - 4 * n
        z = complex(t / 2, math.sqrt(max(-disc, 0.0) / 4))
        if disc > 0:
            z = complex(t / 2 + math.sqrt(disc) / 2, 0.0)
        value = sum(c * z**i for i, c in enumerate(coeffs))
        scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
        if abs(value) > 1e-8 * scale:
            problems.append(f"class ({t:.6g}, {n:.6g}) is not a companion root")
    if len(set(classes)) != len(classes):
        problems.append("repeated class")
    return problems


def _companion(call, code, payload, memo):
    alg: Algebra = call.data["alg"]
    if code != 0:
        return [f"exit {code}"]
    want = companion(alg, call.data["g"])
    got = [_scalar(c, alg) for c in payload["result"]["coefficients"]]
    problems = [] if got == want else ["companion coefficients differ"]
    if payload["result"]["degree"] != len(want) - 1:
        problems.append("companion degree differs")
    return problems


CHECKS = {
    "usage_error": _usage_error,
    "compose": _compose,
    "orbit": _orbit,
    "oct-check": _oct_check,
    "check-periodic": _check_periodic,
    "solve": _solve,
    "companion": _companion,
}


# -- deferred sympy checks ------------------------------------------------------


def run_deferred(deferred) -> dict:
    """Run the sympy checks; returns {id(call): [problems]} for failures."""
    if not deferred:
        return {}
    import sympy

    x = sympy.Symbol("x")
    s5 = sympy.sqrt(5)

    def to_sympy(c):
        if isinstance(c, QF):
            return sympy.Rational(c.a.numerator, c.a.denominator) + sympy.Rational(
                c.b.numerator, c.b.denominator) * sympy.sqrt(c.d)
        return sympy.Rational(c.numerator, c.denominator)

    failures = {}
    for what, call, data in deferred:
        if what == "irreducible":
            poly = sympy.Poly(sum(to_sympy(c) * x**i for i, c in enumerate(data)), x)
            _, factors = sympy.factor_list(poly)
            if not any(p.degree() > 2 for p, _ in factors):
                failures.setdefault(id(call), []).append(
                    "ClassSearchIncompleteError but the companion splits into quadratics")
        else:
            C, classes = data
            ext = [s5] if any(isinstance(c, QF) for c in C) else []
            poly = sympy.Poly(sum(to_sympy(c) * x**i for i, c in enumerate(C)), x, extension=ext or None)
            want = sympy.sqf_part(poly).degree()
            got = sum(1 if T * T == 4 * N else 2 for T, N in classes)
            if got != want:
                failures.setdefault(id(call), []).append(
                    f"classes cover {got} distinct companion roots of {want}")
    return failures
