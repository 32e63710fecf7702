"""Orbits, fixed points, and certification or refutation of periodic points.

A point is r-periodic when every nr-fold composition fixes it, which no finite
computation can check directly.  The verdicts here make the epistemic status
explicit instead of overclaiming:

  certified_periodic  the nr-fold composition fixes the point for r and the
                      point commutes with its first r-1 repeated evaluations;
                      that commutation hypothesis makes composition and
                      repeated evaluation agree, so periodicity follows for
                      every n.
  fixed_point         r = 1; no commutation hypothesis is needed.
  refuted_at          an exact mismatch of the (n*r)-fold composition.
  inconclusive        not r-fixed, or the bounded search exhausted n_max or
                      the work budget without deciding.

Both arguments for fixed_point and certified_periodic assume associative
coefficients.  Over octonions a fixed point can move under f o f, so there the
composites up to n_max are searched for a refutation first, and the two
verdicts only say that none of them moved the point.

No composite is built to evaluate it.  x^2 - T*x + N, with (T, N) the trace
and norm of the point, is central, so the value of the k-fold composition at
the point is read off its residue in A[x]/(x^2 - T*x + N), iterated from x
by u <- f(u) (`_composite_values`).  Every loop over f, these residues and
the repeated evaluations alike, runs through `_bounded`, which bounds the
work actually done: deg(f) times the number of steps stays within MAX_STEPS,
and deg(f) times the bit height of the value a step starts from within
HEIGHT_BUDGET.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

from ._kernel import HEIGHT_BUDGET, height
from .errors import DegreeCapError, UnsupportedAlgebraError, ZeroPolynomialError
from .polynomials import Element, Poly
from .octonions import OctSpec
from .quaternions import QuatSpec
from .solver import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    ClassSolution,
    roots,
)

# Steps of a degree-1 map one orbit or search may take; a degree-d map gets
# MAX_STEPS // d.  A quadratic step that keeps its height costs about 75
# microseconds, a degree-256 one 6.6 ms.
MAX_STEPS = 4096


@dataclass(frozen=True)
class OrbitReport:
    """Orbit prefix under one of the two iteration semantics.

    points[n] is the (n+1)-fold composition evaluated at the start point
    ("compose") or the (n+1)-fold repeated evaluation ("eval");
    commutes_with_start flags each against the start point.
    """

    semantics: str
    points: tuple[Element, ...]
    commutes_with_start: tuple[bool, ...]


@dataclass
class PeriodicVerdict:
    r: int
    status: str
    refuted_at: int | None = None
    evidence: dict = field(default_factory=dict)


@dataclass
class OctFixedReport:
    """Result of probing an octonion fixed-point candidate."""

    fixed: bool
    checked_up_to: int
    first_failure: int | None


def fixed_points(
    f: Poly,
    mode: str = "exact",
    precision: int = DEFAULT_PRECISION,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[ClassSolution]:
    """Class solutions of f(x) = x; every point returned re-fixes under f, since
    the solver verified g(point) = 0 for g = f - x (numeric: within tolerance)."""
    if not isinstance(f.spec, QuatSpec):
        raise UnsupportedAlgebraError("fixed-point solving needs a quaternion algebra")
    g = f - Poly.x(f.spec)
    if g.is_zero:
        raise ZeroPolynomialError(
            "f(x) - x is identically zero: every point is fixed and there "
            "is no class decomposition to return"
        )
    return roots(g, mode=mode, precision=precision, tolerance=tolerance)


def orbit(f: Poly, start, n_max: int, semantics: str = "compose") -> OrbitReport:
    """First n_max orbit points under composition or repeated evaluation."""
    lam = f.spec.coerce(start)
    if semantics == "compose":
        values = _composite_values(f, lam)
    elif semantics == "eval":
        values = _bounded(f, f, lam)
    else:
        raise ValueError(f"unknown orbit semantics {semantics!r}")
    points = [next(values) for _ in range(n_max)]
    flags = tuple(lam.commutes(p) for p in points)
    return OrbitReport(semantics, tuple(points), flags)


def _composite_values(f: Poly, lam: Element) -> Iterator[Element]:
    """Yield the k-fold composition evaluated at lam, for k = 1, 2, ...

    Iterates u <- f(u) in A[x]/(x^2 - T*x + N), (T, N) the trace and norm of
    lam, from u = x; the k-th residue a*x + b gives the value a*lam + b.
    """
    trace, norm = lam.trace(), lam.norm()
    step = functools.partial(f.quotient_value, trace=trace, norm=norm)
    residues = _bounded(f, step, (f.spec.one(), f.spec.zero()))
    return (a * lam + b for a, b in residues)


def _bounded(f: Poly, step, u) -> Iterator:
    """Yield step(u), step(step(u)), ..., where one step applies f once.

    A step costs about deg(f) products of numbers as long as u's, and makes
    the height of u at most deg(f) times larger, up to the height of f's
    coefficients.  So before step k, with deg(f) counted as at least 1,
    raise DegreeCapError when deg(f) * k exceeds MAX_STEPS or deg(f) *
    height(u) exceeds HEIGHT_BUDGET.  u is an element or a residue pair.
    """
    growth = max(f.degree, 1)
    for k in itertools.count(1):
        bits = height(*u) if isinstance(u, tuple) else height(u)
        for size, unit, budget in ((k, "steps", MAX_STEPS), (bits, "bits", HEIGHT_BUDGET)):
            if growth * size > budget:
                raise DegreeCapError(
                    f"step {k} exceeds the budget: degree {growth} times "
                    f"{size} {unit} is over {budget}"
                )
        u = step(u)
        yield u


def certify_periodic(f: Poly, start, r: int, n_max: int = 4) -> PeriodicVerdict:
    """Decide r-periodicity of a point as far as a bounded search can.

    Checks that the r-fold composition fixes the point; certifies via the
    commutation hypothesis on the repeated evaluations when it holds; and
    otherwise hunts for an exact counterexample among the (n*r)-fold
    compositions, n up to n_max.  Over octonions that hunt comes first.
    When the budget stops a stage, the verdict is inconclusive and the
    evidence says why under "budget".
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    evidence: dict = {}
    try:
        return _certify(f, f.spec.coerce(start), r, n_max, evidence)
    except DegreeCapError as exc:
        evidence["budget"] = str(exc)
        return PeriodicVerdict(r, "inconclusive", evidence=evidence)


def _certify(f: Poly, lam: Element, r: int, n_max: int, evidence: dict) -> PeriodicVerdict:
    """certify_periodic, raising DegreeCapError when the budget stops it."""
    values = _composite_values(f, lam)
    if _advance(values, r) != lam:
        evidence["r_fixed"] = False
        return PeriodicVerdict(r, "inconclusive", evidence=evidence)
    evidence["r_fixed"] = True
    nonassociative = isinstance(f.spec, OctSpec)
    if nonassociative:
        verdict = _refute(values, lam, r, n_max, evidence)
        if verdict is not None:
            return verdict
    if r == 1:
        return PeriodicVerdict(r, "fixed_point", evidence=evidence)

    evals = _bounded(f, f, lam)
    commute_flags = evidence["commutes_with_evals"] = []
    for _ in range(r - 1):
        commute_flags.append(lam.commutes(next(evals)))
    failed = [t for t, ok in enumerate(commute_flags, start=1) if not ok]
    if not failed:
        return PeriodicVerdict(r, "certified_periodic", evidence=evidence)
    evidence["failed_t"] = failed
    if not nonassociative:
        verdict = _refute(values, lam, r, n_max, evidence)
        if verdict is not None:
            return verdict
    return PeriodicVerdict(r, "inconclusive", evidence=evidence)


def _advance(values: Iterator[Element], steps: int) -> Element:
    """The value `steps` further along `values`."""
    for _ in range(steps):
        value = next(values)
    return value


def _refute(values, lam, r, n_max, evidence) -> PeriodicVerdict | None:
    """Evaluate the (n*r)-fold compositions, n = 2..n_max, at lam.

    `values` has just yielded the r-fold composition at lam.  Returns
    refuted_at for the first n that moves lam and None when every composite
    fixes lam; `evidence` records the n checked, also when the budget stops
    the search.
    """
    checked = evidence["refutation_checked"] = []
    for n in range(2, n_max + 1):
        value = _advance(values, r)
        checked.append(n)
        if value != lam:
            return PeriodicVerdict(r, "refuted_at", refuted_at=n, evidence=evidence)
    return None


def octonion_fixed_check(f: Poly, start, n_max: int = 4) -> OctFixedReport:
    """Probe whether a fixed-point candidate stays fixed under composition.

    The r = 1 case of certify_periodic: it verifies f(start) = start, then,
    over octonions, evaluates the n-fold compositions at the point for
    n = 2..n_max and reports the first n that fails.  Over an associative
    coefficient algebra no failure can occur, and none is searched for.
    Raises DegreeCapError when the budget stops the search.
    """
    verdict = _certify(f, f.spec.coerce(start), 1, n_max, {})
    if verdict.status == "inconclusive":  # not fixed
        return OctFixedReport(fixed=False, checked_up_to=1, first_failure=1)
    n = verdict.refuted_at
    return OctFixedReport(fixed=True, checked_up_to=n or n_max, first_failure=n)
