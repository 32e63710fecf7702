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
  inconclusive        not r-fixed, or the bounded search exhausted its budget
                      (n_max or degree cap) without deciding.

Both arguments for fixed_point and certified_periodic assume associative
coefficients.  Over octonions a fixed point can move under f o f, so there the
composites up to n_max are searched for a refutation first, and the two
verdicts only say that none of them moved the point.

No composite is built to evaluate it.  x^2 - T*x + N, with (T, N) the trace
and norm of the point, is central, so the value of the k-fold composition at
the point is read off its residue in A[x]/(x^2 - T*x + N), iterated from x
by u <- f(u) (`_composite_values`).  The degree cap still bounds these paths
by the nominal degree deg(f)**k of the composite each value stands for, and
fires at the same k with the same message as building it would.  Only when a
split algebra's zero divisors make the composites' degrees collapse below
deg(f)**k does the cap fire earlier than on the built composite.  The k-th
repeated evaluation counts deg(f)**k against the cap by the same rule
(`_capped`): its numerators grow as a composite's do.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import DegreeCapError, UnsupportedAlgebraError, ZeroPolynomialError
from .polynomials import DEFAULT_DEGREE_CAP, Element, Poly
from .octonions import OctSpec
from .quaternions import QuatSpec
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
    """Class solutions of f(x) = x; every point returned re-fixes under f."""
    if not isinstance(f.spec, QuatSpec):
        raise UnsupportedAlgebraError("fixed-point solving needs a quaternion algebra")
    g = f - Poly.x(f.spec)
    if g.is_zero:
        raise ZeroPolynomialError(
            "f(x) - x is identically zero: every point is fixed and there "
            "is no class decomposition to return"
        )
    if g.degree == 0:
        return []
    sols = roots(g, mode=mode, precision=precision, tolerance=tolerance)
    if mode == "exact":
        for sol in sols:
            if sol.kind == "point" and f(sol.point) != sol.point:
                raise AssertionError("fixed-point candidate does not re-fix")
    return sols


def orbit(
    f: Poly,
    start,
    n_max: int,
    semantics: str = "compose",
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> OrbitReport:
    """First n_max orbit points under composition or repeated evaluation."""
    lam = f.spec.coerce(start)
    if semantics == "compose":
        values = _composite_values(f, lam, degree_cap)
    elif semantics == "eval":
        values = _capped(f, degree_cap, f, lam)
    else:
        raise ValueError(f"unknown orbit semantics {semantics!r}")
    points = [next(values) for _ in range(n_max)]
    flags = tuple(lam.commutes(p) for p in points)
    return OrbitReport(semantics, tuple(points), flags)


def _composite_values(f: Poly, lam: Element, degree_cap: int) -> Iterator[Element]:
    """Yield the k-fold composition evaluated at lam, for k = 1, 2, ...

    Iterates u <- f(u) in A[x]/(x^2 - T*x + N), (T, N) the trace and norm of
    lam, from u = x; the k-th residue a*x + b gives the value a*lam + b.  No
    composite is built, but the k-th value raises DegreeCapError, as building
    the composite would, once its nominal degree deg(f)**k exceeds degree_cap.
    """
    trace, norm = lam.trace(), lam.norm()
    step = functools.partial(f.quotient_value, trace=trace, norm=norm)
    residues = _capped(f, degree_cap, step, (f.spec.one(), f.spec.zero()))
    return (a * lam + b for a, b in residues)


def _capped(f: Poly, degree_cap: int, step, u) -> Iterator:
    """Yield step(u), step(step(u)), ...; the k-th stands for a composite of f.

    Before the k-th (k >= 2) is computed, raise DegreeCapError if the nominal
    degree deg(f)**k of that composite exceeds degree_cap.
    """
    nominal = f.degree
    while True:
        u = step(u)
        yield u
        if f.degree >= 1:
            nominal *= f.degree
            if nominal > degree_cap:
                raise DegreeCapError(
                    f"composition degree {nominal} exceeds cap {degree_cap}"
                )


def certify_periodic(
    f: Poly,
    start,
    r: int,
    n_max: int = 4,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> PeriodicVerdict:
    """Decide r-periodicity of a point as far as a bounded search can.

    Checks that the r-fold composition fixes the point; certifies via the
    commutation hypothesis on the repeated evaluations when it holds; and
    otherwise hunts for an exact counterexample among the (n*r)-fold
    compositions, n up to n_max.  Over octonions that hunt comes first.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    lam = f.spec.coerce(start)
    evidence: dict = {}
    try:
        f.check_iterate_cap(r, degree_cap)
    except DegreeCapError as exc:
        evidence["degree_cap"] = str(exc)
        return PeriodicVerdict(r, "inconclusive", evidence=evidence)
    values = _composite_values(f, lam, degree_cap)
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

    value = lam
    commute_flags: list[bool] = []
    for _ in range(r - 1):
        value = f(value)
        commute_flags.append(lam.commutes(value))
    evidence["commutes_with_evals"] = commute_flags
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
    refuted_at for the first n that moves lam, inconclusive when the degree
    cap stops the search, and None when every composite fixes lam;
    `evidence` records the n checked.
    """
    checked: list[int] = []
    for n in range(2, n_max + 1):
        try:
            value = _advance(values, r)
        except DegreeCapError as exc:
            evidence["degree_cap"] = str(exc)
            evidence["refutation_checked"] = checked
            return PeriodicVerdict(r, "inconclusive", evidence=evidence)
        checked.append(n)
        if value != lam:
            evidence["refutation_checked"] = checked
            return PeriodicVerdict(r, "refuted_at", refuted_at=n, evidence=evidence)
    evidence["refutation_checked"] = checked
    return None


def octonion_fixed_check(
    f: Poly,
    start,
    n_max: int = 4,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> OctFixedReport:
    """Probe whether a fixed-point candidate stays fixed under composition.

    Verifies f(start) = start, then evaluates the n-fold compositions at the
    point for n = 2..n_max, reporting the first n that fails.  Over an
    associative coefficient algebra no failure can occur; over octonions it
    can.
    """
    lam = f.spec.coerce(start)
    values = _composite_values(f, lam, degree_cap)
    if next(values) != lam:
        return OctFixedReport(fixed=False, checked_up_to=1, first_failure=1)
    for n in range(2, n_max + 1):
        if next(values) != lam:
            return OctFixedReport(fixed=True, checked_up_to=n, first_failure=n)
    return OctFixedReport(fixed=True, checked_up_to=n_max, first_failure=None)
