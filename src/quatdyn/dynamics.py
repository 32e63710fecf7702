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
by u <- f(u).  Every loop here reads one of `Poly`'s two streams of values:
`composite_values` and, for repeated evaluation, `eval_values`.  No
numerator is handled here, and no budget: both streams step through
`_kernel._bounded`, which bounds the work actually done: deg(f) times the
number of steps stays within MAX_STEPS, and deg(f) times the bit height of
the value a step starts from within HEIGHT_BUDGET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from ._kernel import Element, _at_least_one
from .errors import DegreeCapError, ZeroPolynomialError
from .polynomials import Poly
from .octonions import OctSpec
from .solver import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    ClassSolution,
    roots,
)


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
    g = f - Poly.x(f.spec)
    if g.is_zero:
        raise ZeroPolynomialError(
            "f(x) - x is identically zero: every point is fixed and there "
            "is no class decomposition to return"
        )
    return roots(g, mode=mode, precision=precision, tolerance=tolerance)


def orbit(f: Poly, start, n_max: int, semantics: str = "compose") -> OrbitReport:
    """First n_max orbit points under composition or repeated evaluation."""
    _at_least_one(n_max=n_max)
    lam = f.spec.coerce(start)
    if semantics == "compose":
        values = f.composite_values(lam)
    elif semantics == "eval":
        values = f.eval_values(lam)
    else:
        raise ValueError(f"unknown orbit semantics {semantics!r}")
    points = [next(values) for _ in range(n_max)]
    flags = tuple(lam.commutes(p) for p in points)
    return OrbitReport(semantics, tuple(points), flags)


def certify_periodic(f: Poly, start, r: int, n_max: int = 4) -> PeriodicVerdict:
    """Decide r-periodicity of a point as far as a bounded search can.

    Checks that the r-fold composition fixes the point; certifies via the
    commutation hypothesis on the repeated evaluations when it holds; and
    otherwise hunts for an exact counterexample among the (n*r)-fold
    compositions, n up to n_max.  Over octonions that hunt comes first.
    When the budget stops a stage, the verdict is inconclusive and the
    evidence says why under "budget".
    """
    _at_least_one(r=r, n_max=n_max)
    evidence: dict = {}
    try:
        return _certify(f, f.spec.coerce(start), r, n_max, evidence)
    except DegreeCapError as exc:
        evidence["budget"] = str(exc)
        return PeriodicVerdict(r, "inconclusive", evidence=evidence)


def _certify(f: Poly, lam: Element, r: int, n_max: int, evidence: dict) -> PeriodicVerdict:
    """certify_periodic, raising DegreeCapError when the budget stops it."""
    values = f.composite_values(lam)
    if next(islice(values, r - 1, None)) != lam:
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

    evals = f.eval_values(lam)
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


def _refute(values, lam, r, n_max, evidence) -> PeriodicVerdict | None:
    """Evaluate the (n*r)-fold compositions, n = 2..n_max, at lam.

    `values` has just yielded the r-fold composition at lam.  Returns
    refuted_at for the first n that moves lam and None when every composite
    fixes lam; `evidence` records the n checked, also when the budget stops
    the search.
    """
    checked = evidence["refutation_checked"] = []
    for n in range(2, n_max + 1):
        value = next(islice(values, r - 1, None))
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
    _at_least_one(n_max=n_max)
    verdict = _certify(f, f.spec.coerce(start), 1, n_max, {})
    if verdict.status == "inconclusive":  # not fixed
        return OctFixedReport(fixed=False, checked_up_to=1, first_failure=1)
    n = verdict.refuted_at
    return OctFixedReport(fixed=True, checked_up_to=n or n_max, first_failure=n)
