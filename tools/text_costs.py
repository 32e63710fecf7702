"""Where quatdyn's calls spend their time: text in, arithmetic, text out.

    python3 tools/text_costs.py [CHECKOUT]

Runs every distinct argv that `tools/output_digest.py` hashes (the lists
that `perfbench/workloads.py` builds for iterate, periodic and roots at
seeds 1-20, one round each) through quatdyn's public entry points, one
stage at a time, and prints one line per workload with the milliseconds
each stage took, summed over the calls:

    argparse  cli.build_parser().parse_args
    parse     cli.parse_algebra, parsing.parse_poly and, with --point,
              parsing.parse_element
    compute   the command's function (Poly.compose_iterate, dynamics.orbit,
              dynamics.certify_periodic, dynamics.octonion_fixed_check,
              solver.roots, dynamics.fixed_points or solver.companion)
    render    render() of every polynomial and point the document prints
              (the solver's per-coordinate text aside)
    json      json.dumps(..., indent=2) of the document the call printed
    main      the whole call, cli.main, for comparison

A call stops at the stage that raises, as the CLI's would.  As
`perfbench/runner.py` does, gc collects before each call and is off during
it.  The pass over all calls runs PASSES times, and each stage
reports its smallest sum.  Nothing is patched: the stages are the calls
that the CLI's handlers make.  Report only; it checks no output.

The program is imported from CHECKOUT/src (by default this repository's);
the argv lists always come from this repository's perfbench.  Run it from
the repository root, where the goldens are read from tests/golden.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 21)
PASSES = 3
STAGES = ("argparse", "parse", "compute", "render", "json", "main")


def _timed(costs: dict, stage: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its time added to costs[stage]."""
    t0 = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        costs[stage] += perf_counter() - t0


def _compute(ns, f, start):
    """Run the command; return the polynomials and points its document prints."""
    from quatdyn import dynamics, solver

    if ns.command == "compose":
        return [f.compose_iterate(ns.n)]
    if ns.command == "orbit":
        return list(dynamics.orbit(f, start, ns.n_max, semantics=ns.semantics).points)
    if ns.command == "check-periodic":
        dynamics.certify_periodic(f, start, ns.r, n_max=ns.n_max)
        return []
    if ns.command == "oct-check":
        dynamics.octonion_fixed_check(f, start, n_max=ns.n_max)
        return []
    if ns.command == "companion":
        C = solver.companion(f)
        return [C, *C.coeffs]
    solve = dynamics.fixed_points if ns.command == "fixed-points" else solver.roots
    sols = solve(f, mode=ns.mode, precision=ns.precision, tolerance=ns.tolerance)
    return [v for s in sols for v in (s.klass.trace, s.klass.norm, s.point) if v is not None]


def _call(argv, costs: dict) -> None:
    """Time one argv, whole and stage by stage, into costs: gc collects
    before the call and is off during it, as in perfbench's runner."""
    gc.collect()
    gc.disable()
    try:
        _stages(argv, costs)
    finally:
        gc.enable()


def _stages(argv, costs: dict) -> None:
    from quatdyn import cli
    from quatdyn.parsing import parse_element, parse_poly

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _timed(costs, "main", cli.main, argv)
    try:
        ns = argparse.Namespace(command=None)
        _timed(costs, "argparse", cli.build_parser().parse_args, argv, ns)
        spec = _timed(costs, "parse", cli.parse_algebra, ns.algebra)
        f = _timed(costs, "parse", parse_poly, ns.poly, spec)
        start = _timed(costs, "parse", parse_element, ns.point, spec) if "point" in ns else None
        values = _timed(costs, "compute", _compute, ns, f, start)
    except (Exception, SystemExit):  # the stage the CLI stops at
        pass
    else:
        printed = [f] + ([start] if start is not None else []) + values
        _timed(costs, "render", lambda: [v.render() for v in printed])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as cli.main does around its json.dumps
    try:
        _timed(costs, "json", json.dumps, json.loads(out.getvalue()), indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> int:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT
    sys.path[:0] = [str(checkout.resolve() / "src"), str(ROOT / "perfbench")]
    import workloads

    for name in ("iterate", "periodic", "roots"):
        seen: dict[str, list[str]] = {}
        for seed in SEEDS:
            for call in workloads.build(name, seed, 1):
                seen.setdefault("\0".join(call.argv), call.argv)
        best = dict.fromkeys(STAGES, float("inf"))
        for _ in range(PASSES):
            costs = dict.fromkeys(STAGES, 0.0)
            for argv in seen.values():
                _call(argv, costs)
            best = {stage: min(best[stage], costs[stage]) for stage in STAGES}
        print(name, len(seen), " ".join(f"{s} {best[s] * 1e3:.1f}" for s in STAGES), "ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
