"""Seeded `quatdyn` argv lists for the three workloads.

A run is `rounds` repetitions of a fixed per-workload template; each round
draws fresh coefficients from `random.Random(f"{workload}:{seed}:{round}")`,
so the same seed gives the same calls and the template, not the seed, decides
how much work of each kind a run holds.  Every call carries the data its
oracle needs, computed with `algebra`, never with `quatdyn`.

Why these templates:

* iterate -- `compose` ladders n = 2 .. the depth where one call takes about
  a second, over Q, Q(sqrt 5) and the octonions, plus cubics, and
  `orbit --semantics eval` from non-fixed points.  Time goes to the algebra
  kernel and `Poly` product/composition/rendering, none to the solver.
* periodic -- `orbit --semantics compose`, `check-periodic` and `oct-check`
  at planted fixed points f(lam) = lam (half from the commuting family with
  coefficients in Q(lam), which survive every check and build composites of
  degree 2^n; half generic), at non-fixed points, and at the worked examples.
* roots -- `roots`, `fixed-points` and `companion` on planted products of
  linear factors (integer roots, and quartics whose rational roots have
  denominator 11, each of which sends the exact divisor search into a
  runaway), on dense integer polynomials (exact mode answers
  ClassSearchIncompleteError), and on dense polynomials in numeric mode over
  Q and Q(sqrt 5).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from algebra import QF, Algebra

Q = Algebra()
Q5 = Algebra(d=5)
OCT = Algebra(gamma=-1)

GOLDEN_DIR = Path("tests/golden")
GOLDEN = {
    "iterate": ["compose_square_twice"],
    "periodic": ["check_periodic_certified", "oct_check_counterexample", "orbit_constant"],
    "roots": [
        "companion_quadratic",
        "roots_linear",
        "fixed_points_quadratic",
        "error_identity_fixed_points",
    ],
}

# Worked example of the README: a point of x^2+(i+1)*x+1+i*j over Q(sqrt 5)
# that is refuted as 2-periodic at n = 2.
SQRT5_POINT = (
    "-1 + (133/362*s5 - 333/362)*i - (14/181*s5 + 165/181)*j - (26/181*s5 + 22/181)*k"
)
OCT_COUNTEREXAMPLE = "l*x^2+(1-i*l)*x+l-(i*j)*l"


@dataclass
class Call:
    argv: list[str]
    kind: str
    data: dict = field(default_factory=dict)


def _coord(rng, span):
    # nonzero, so that inputs of one template slot cost about the same
    return rng.choice([v for v in range(-span, span + 1) if v])


def _elem(rng, alg, span=1, den=(1,)):
    if alg.d is None:
        return tuple(Fraction(_coord(rng, span), rng.choice(den)) for _ in range(alg.dim))
    return tuple(QF(_coord(rng, span), _coord(rng, 1), alg.d) for _ in range(alg.dim))


def _poly(rng, alg, degree, span=1):
    return [_elem(rng, alg, span) for _ in range(degree + 1)]


def _plant_fixed(alg, coeffs, lam):
    """Set the constant term so that f(lam) = lam."""
    rest = alg.evaluate([alg.zero()] + coeffs, lam)
    return [alg.sub(lam, rest)] + coeffs


def _commuting_fixed(rng, alg, lam, degree=2):
    """Coefficients s + t*lam in Q(lam): every check at lam survives."""
    coeffs = [alg.add(alg.const(alg.scalar(_coord(rng, 1))), alg.smul(_coord(rng, 1), lam))
              for _ in range(degree)]
    return _plant_fixed(alg, coeffs, lam)


def _central_points(rng):
    pts = set()
    while len(pts) < 2:
        pts.add(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return sorted(pts)


def _golden(name):
    case = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    expected = json.dumps(case["expected"], indent=2) + "\n"
    return Call(case["argv"], "golden", {"exit": case["exit_code"], "stdout": expected})


def _alg_argv(cmd, alg, poly_text):
    return [cmd, "--algebra", alg.text, f"--poly={poly_text}"]


# -- iterate ------------------------------------------------------------------

# (algebra, degree, deepest n): the deepest call takes about a second
ITERATE_LADDERS = [(Q, 2, 7), (Q5, 2, 6), (OCT, 2, 6), (Q, 3, 4)]


def _compose(rng, alg, degree, n):
    f = _poly(rng, alg, degree)
    argv = _alg_argv("compose", alg, alg.render_poly(f)) + ["--n", str(n)]
    return Call(argv, "compose", {"alg": alg, "f": f, "n": n, "points": _central_points(rng)})


def _orbit_eval(rng, n_max):
    f = _poly(rng, Q, 2)
    while True:
        lam = _elem(rng, Q)
        if Q.evaluate(f, lam) != lam:
            break
    argv = _alg_argv("orbit", Q, Q.render_poly(f)) + [
        f"--point={Q.render(lam)}", "--n-max", str(n_max), "--semantics", "eval"]
    return Call(argv, "orbit", {"alg": Q, "f": f, "lam": lam, "n_max": n_max, "semantics": "eval"})


def iterate_round(rng):
    calls = [_compose(rng, alg, deg, n) for alg, deg, top in ITERATE_LADDERS for n in range(2, top + 1)]
    calls += [_orbit_eval(rng, n) for n in (8, 10, 12)]
    calls += [_golden(name) for name in GOLDEN["iterate"]]
    calls.append(Call(["compose", "--poly", "x^2+i", "--n", "0"], "usage_error"))
    return calls


# -- periodic -----------------------------------------------------------------


def _orbit_compose(alg, f, lam, n_max):
    argv = _alg_argv("orbit", alg, alg.render_poly(f)) + [f"--point={alg.render(lam)}", "--n-max", str(n_max)]
    return Call(argv, "orbit", {"alg": alg, "f": f, "lam": lam, "n_max": n_max, "semantics": "compose"})


def _check_periodic(alg, f, lam, r, n_max):
    argv = _alg_argv("check-periodic", alg, alg.render_poly(f)) + [
        f"--point={alg.render(lam)}", "--r", str(r), "--n-max", str(n_max)]
    return Call(argv, "check-periodic", {"alg": alg, "f": f, "lam": lam, "r": r, "n_max": n_max})


def _oct_check(alg, f, lam, n_max):
    argv = _alg_argv("oct-check", alg, alg.render_poly(f)) + [f"--point={alg.render(lam)}", "--n-max", str(n_max)]
    return Call(argv, "oct-check", {"alg": alg, "f": f, "lam": lam, "n_max": n_max})


def periodic_round(rng):
    calls = []
    # commuting family: every check survives to n_max
    lam = _elem(rng, Q)
    f = _commuting_fixed(rng, Q, lam)
    calls += [_orbit_compose(Q, f, lam, 7), _check_periodic(Q, f, lam, 2, 3), _oct_check(Q, f, lam, 7)]
    lam = _elem(rng, OCT)
    f = _commuting_fixed(rng, OCT, lam)
    calls += [_oct_check(OCT, f, lam, 5), _orbit_compose(OCT, f, lam, 4), _check_periodic(OCT, f, lam, 1, 4)]
    # generic planted fixed points
    lam = _elem(rng, Q)
    f = _plant_fixed(Q, _poly(rng, Q, 2)[1:], lam)
    calls += [_orbit_compose(Q, f, lam, 5), _check_periodic(Q, f, lam, 1, 4), _check_periodic(Q, f, lam, 2, 2)]
    lam = _elem(rng, OCT)
    f = _plant_fixed(OCT, _poly(rng, OCT, 2)[1:], lam)
    # oct-check first, then check-periodic --r 1 on the same input: the pair
    # is the cross-check for octonion r = 1 verdicts
    calls += [_oct_check(OCT, f, lam, 4), _check_periodic(OCT, f, lam, 1, 4)]
    # non-fixed points
    for r in (2, 3, 4):
        f = _poly(rng, Q, 2)
        calls.append(_check_periodic(Q, f, _elem(rng, Q), r, 2))
    # worked examples
    calls.append(Call(
        ["check-periodic", "--algebra", Q5.text, "--poly", "x^2+(i+1)*x+1+i*j",
         f"--point={SQRT5_POINT}", "--r", "2", "--n-max", "2"],
        "check-periodic", {"alg": Q5, "f_text": "x^2+(i+1)*x+1+i*j", "lam_text": SQRT5_POINT, "r": 2, "n_max": 2}))
    calls.append(Call(
        ["check-periodic", "--algebra", OCT.text, "--poly", OCT_COUNTEREXAMPLE, "--point", "j", "--r", "1", "--n-max", "4"],
        "check-periodic", {"alg": OCT, "f_text": OCT_COUNTEREXAMPLE, "lam_text": "j", "r": 1, "n_max": 4}))
    calls += [_golden(name) for name in GOLDEN["periodic"]]
    calls.append(Call(["check-periodic", "--poly", "x^2+i", "--point=-i", "--r", "0"], "usage_error"))
    return calls


# -- roots ----------------------------------------------------------------------


def _planted_product(rng, degree, den=(1,), span=2):
    roots = [_elem(rng, Q, span, den) for _ in range(degree)]
    g = [Q.one()]
    for q in roots:
        g = Q.pmul(g, [Q.smul(-1, q), Q.one()])
    classes = sorted({(q[0] + q[0], Q.norm(q)) for q in roots})
    return g, classes


def _solve_call(cmd, alg, g, classes=(), mode="exact", precision=None):
    """`roots` of g, or `fixed-points` of f = g + x (so that f - x = g)."""
    f = alg.padd(g, [alg.zero(), alg.one()]) if cmd == "fixed-points" else g
    argv = _alg_argv(cmd, alg, alg.render_poly(f)) + ["--mode", mode]
    if precision:
        argv += ["--precision", str(precision)]
    return Call(argv, "solve", {"alg": alg, "g": alg.trim(g), "f": f, "cmd": cmd,
                                "mode": mode, "classes": list(classes)})


# numeric cases per round: (algebra, degree, precision).  In a two-round run
# the two runaways and the four degree-6 cases are the six slowest calls, so
# latency_tail_ms (the 11th slowest) falls mid-way through the eight quartics
# of one kind, not at a gap between two kinds.
NUMERIC = [(Q, 3, 128)] + [(Q, 4, 256)] * 4 + [(Q, 6, 256), (Q5, 6, 256)]


def roots_round(rng):
    calls = []
    # most at degree 4, so that the median call sits inside one cluster
    for deg in (2, 3, 4, 4, 4, 4, 5, 5, 6, 6):
        g, classes = _planted_product(rng, deg)
        calls.append(_solve_call("roots", Q, g, classes))
    for deg in (2, 3, 4, 5):
        g, classes = _planted_product(rng, deg)
        calls.append(_solve_call("fixed-points", Q, g, classes))
    for deg in (3, 6):
        g = _poly(rng, Q, deg, span=2)
        calls.append(Call(_alg_argv("companion", Q, Q.render_poly(g)), "companion", {"alg": Q, "g": g}))
    g, classes = _planted_product(rng, 4, den=(11,))
    calls.append(_solve_call("roots", Q, g, classes))
    for cmd, deg in (("roots", 2), ("roots", 4), ("fixed-points", 3)):
        calls.append(_solve_call(cmd, Q, _poly(rng, Q, deg, span=2)))
    for alg, deg, prec in NUMERIC:
        g = [_elem(rng, alg, 3) for _ in range(deg)] + [alg.one()]
        calls.append(_solve_call("roots", alg, g, mode="numeric", precision=prec))
    calls += [_golden(name) for name in GOLDEN["roots"]]
    return calls


ROUNDS = {"iterate": iterate_round, "periodic": periodic_round, "roots": roots_round}


def build(workload: str, seed: int, rounds: int) -> list[Call]:
    make = ROUNDS[workload]
    calls = []
    for r in range(rounds):
        calls += make(random.Random(f"{workload}:{seed}:{r}"))
    return calls
