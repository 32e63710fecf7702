"""Command-line interface: parse, compute, emit deterministic JSON.

Algebras are declared as `quat:<alpha>,<beta>@<field>` or
`oct:<alpha>,<beta>,<gamma>@<field>` where the field is `Q` or `Q(s<d>)`,
e.g. `quat:-1,-1@Q` or `quat:-1,-1@Q(s5)`.  Exit codes: 0 success, 1
mathematical error (split element, degree cap or work budget, incomplete
exact factorization, non-convergence), 2 usage or parse error.  Every error,
argparse's usage errors included, prints a JSON document on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict

from . import __version__
from . import dynamics, solver
from .errors import AlgebraError, ParseError, UsageError
from .octonions import OctSpec
from .parsing import parse_element, parse_poly, parse_scalar
from .quaternions import QuatSpec, Quaternion
from .scalars import FieldSpec, Scalar

_FIELD_RE = re.compile(r"Q\(s(-?[0-9]+)\)")

DEFAULT_ALGEBRA = "quat:-1,-1@Q"
# kept at 53 bits (a double's) for compatibility: which --precision values
# are usage errors is part of the command-line contract
MIN_PRECISION = 53


def parse_field(text: str) -> FieldSpec:
    if text == "Q":
        return FieldSpec()
    m = _FIELD_RE.fullmatch(text)
    if not m:
        raise ParseError(f"unknown field {text!r}; expected Q or Q(s<d>)")
    try:
        return FieldSpec(int(m.group(1)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@functools.lru_cache(maxsize=64)  # specs are immutable, and each builds its tables
def parse_algebra(text: str) -> QuatSpec | OctSpec:
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"malformed algebra declaration {text!r}")
    params, sep, field_text = rest.rpartition("@")
    if not sep:
        raise ParseError(f"algebra declaration {text!r} is missing @<field>")
    field = parse_field(field_text)
    try:
        values = [parse_scalar(p, field) for p in params.split(",")]
    except ParseError as exc:
        raise ParseError(f"bad algebra parameter in {text!r}: {exc}") from None
    if kind == "quat" and len(values) != 2:
        raise ParseError("quat algebras take exactly two parameters")
    if kind == "oct" and len(values) != 3:
        raise ParseError("oct algebras take exactly three parameters")
    if kind not in ("quat", "oct"):
        raise ParseError(f"unknown algebra kind {kind!r}")
    try:  # a zero parameter
        quat = QuatSpec(field, values[0], values[1])
        return quat if kind == "quat" else OctSpec(quat, values[2])
    except ValueError as exc:
        raise ParseError(f"bad algebra parameter in {text!r}: {exc}") from None


# -- serialization helpers -----------------------------------------------------


def _class_dict(klass: solver.ConjClass) -> dict:
    d = {
        "trace": klass.trace.render(),
        "norm": klass.norm.render(),
        "exact": klass.exact,
    }
    if not klass.exact:
        d["precision"] = klass.precision
    return d


def _coordinates(point: Quaternion) -> dict:
    w, field = point.spec.table.width, point.spec.field
    return {
        sym or "1": Scalar.text(field, point.nums[w * k : w * k + w], point.den)
        for k, sym in enumerate(point.BASIS)
    }


def _solution_dict(sol: solver.ClassSolution) -> dict:
    d = {"variant": sol.kind, "class": _class_dict(sol.klass)}
    if sol.point is not None:
        d["point"] = sol.point.render()
        d["coordinates"] = _coordinates(sol.point)
    if sol.residual is not None:
        d["residual"] = sol.residual
        d["approx"] = True
    if sol.detail:
        d["detail"] = sol.detail
    return d


def _inputs(ns, *names):
    """f, the start point (None for a command without --point) and the
    payload so far: the command, the algebra and the inputs, which are the
    polynomial, the point and the arguments `names`, as given.  The parsers
    are looked up as module globals at call time, so that a wrapper
    installed there (a tracer) applies."""
    spec = parse_algebra(ns.algebra)
    f = parse_poly(ns.poly, spec)
    inputs, start = {"poly": f.render()}, None
    if "point" in ns:
        start = parse_element(ns.point, spec)
        inputs["point"] = start.render()
    inputs.update((name, getattr(ns, name)) for name in names)
    return f, start, {"command": ns.command, "algebra": str(spec), "inputs": inputs}


# -- subcommand handlers ----------------------------------------------------------


def _cmd_solve(ns) -> dict:
    """fixed-points and roots: the solver function is looked up on its module
    at call time, so that a wrapper installed there (a tracer) applies."""
    numeric = ("precision", "tolerance") if ns.mode == "numeric" else ()
    f, _, payload = _inputs(ns, "mode", *numeric)
    solve = dynamics.fixed_points if ns.command == "fixed-points" else solver.roots
    sols = solve(f, mode=ns.mode, precision=ns.precision, tolerance=ns.tolerance)
    payload["result"] = [_solution_dict(s) for s in sols]
    return payload


def _cmd_companion(ns) -> dict:
    g, _, payload = _inputs(ns)
    C = solver.companion(g)
    payload["result"] = {
        "companion": C.render(),
        "coefficients": [C.spec.ELEMENT.text(C.spec, row, C.den) for row in zip(*C.cols)],
        "degree": C.degree,
    }
    return payload


def _cmd_compose(ns) -> dict:
    f, _, payload = _inputs(ns, "n")
    composed = f.compose_iterate(ns.n)
    payload["result"] = {"poly": composed.render(), "degree": composed.degree}
    return payload


def _cmd_orbit(ns) -> dict:
    f, start, payload = _inputs(ns, "n_max")
    report = dynamics.orbit(f, start, ns.n_max, semantics=ns.semantics)
    payload["result"] = {
        "semantics": report.semantics,
        "points": [p.render() for p in report.points],
        "commutes_with_start": list(report.commutes_with_start),
    }
    return payload


def _cmd_check_periodic(ns) -> dict:
    f, start, payload = _inputs(ns, "r", "n_max")
    payload["result"] = asdict(dynamics.certify_periodic(f, start, ns.r, n_max=ns.n_max))
    return payload


def _cmd_oct_check(ns) -> dict:
    f, start, payload = _inputs(ns, "n_max")
    payload["result"] = asdict(dynamics.octonion_fixed_check(f, start, n_max=ns.n_max))
    return payload


_HANDLERS = {
    "fixed-points": _cmd_solve,
    "roots": _cmd_solve,
    "companion": _cmd_companion,
    "compose": _cmd_compose,
    "orbit": _cmd_orbit,
    "check-periodic": _cmd_check_periodic,
    "oct-check": _cmd_oct_check,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2.

    Subparsers are made with the class of their parent parser, so they
    raise it too.
    """

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="quatdyn",
        description="Exact dynamics of left polynomials over quaternion "
        "and octonion algebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    poly = argparse.ArgumentParser(add_help=False)
    poly.add_argument("--algebra", default=DEFAULT_ALGEBRA)
    poly.add_argument("--poly", required=True)
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    solve.add_argument("--tolerance", type=float, default=solver.DEFAULT_TOLERANCE)
    solve.add_argument("--precision", type=int, default=solver.DEFAULT_PRECISION)
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--point", required=True)
    point.add_argument("--n-max", type=int, default=4)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fixed-points", parents=[poly, solve])
    sub.add_parser("roots", parents=[poly, solve])
    sub.add_parser("companion", parents=[poly])

    compose = sub.add_parser("compose", parents=[poly])
    compose.add_argument("--n", type=int, required=True)

    orbit = sub.add_parser("orbit", parents=[poly, point])
    orbit.add_argument("--semantics", choices=("compose", "eval"), default="compose")

    periodic = sub.add_parser("check-periodic", parents=[poly, point])
    periodic.add_argument("--r", type=int, required=True)

    sub.add_parser("oct-check", parents=[poly, point])

    parser.commands = sub.choices  # each command's own parser, by name
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # argv that starts with a command goes straight to that command's parser,
    # named in ns first, so a usage error can still say which command it
    # belongs to; the top-level parser reads only the rest (--help, --version,
    # a missing or unknown command)
    ns = argparse.Namespace(command=None)
    try:
        if argv and argv[0] in parser.commands:
            ns.command = argv[0]
            parser.commands[argv[0]].parse_args(argv[1:], ns)
        else:
            parser.parse_args(argv, ns)
    except SystemExit as exc:  # --help and --version
        return 0 if not exc.code else 2
    except UsageError as exc:
        _emit_error(ns.command, exc)
        return 2
    try:
        _check_arguments(ns)
        payload = _HANDLERS[ns.command](ns)
    except (ParseError, UsageError) as exc:
        _emit_error(ns.command, exc)
        return 2
    except (AlgebraError, ZeroDivisionError) as exc:
        _emit_error(ns.command, exc)
        return 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a residual past the double range prints in full
    try:
        print(json.dumps(payload, indent=2))
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def _check_arguments(ns) -> None:
    """Reject out-of-range numeric arguments before any work."""
    for name in ("n", "r", "n_max"):
        value = getattr(ns, name, None)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be at least 1, got {value}")
    if not hasattr(ns, "tolerance"):
        return  # only the solver commands take --tolerance and --precision
    if not (math.isfinite(ns.tolerance) and ns.tolerance >= 0):
        raise UsageError(
            f"--tolerance must be a finite nonnegative number, got {ns.tolerance}"
        )
    if ns.precision < MIN_PRECISION:
        raise UsageError(
            f"--precision must be at least {MIN_PRECISION}, got {ns.precision}"
        )
    if ns.precision > solver.MAX_PRECISION:
        raise UsageError(
            f"--precision must be at most {solver.MAX_PRECISION}, got {ns.precision}"
        )


def _emit_error(command: str, exc: Exception) -> None:
    payload = {
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    print(json.dumps(payload, indent=2))


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
