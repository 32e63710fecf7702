"""What quatdyn prints, which paths it takes and where its time goes, on the
benchmark's argv lists.

    python3 tools/report.py [CHECKOUT]

A workload's corpus is every distinct argv that `perfbench/workloads.py`
builds for it at seeds 1-20, one round each (the 8 goldens among them), in
the order first built.  Each argv runs PASSES times in-process through
`quatdyn.cli.main`, gc collected before each call and off during it, as in
perfbench's runner; every number printed comes from those calls.  Per
workload (iterate, periodic, roots), eight lines:

    <workload> <calls> <sha256>
    <workload> poly_mul schoolbook <n> packed <n>
    <workload> compose packed <n> columns <n>
    <workload> compose powers schoolbook <n> packed <n>
    <workload> squarefree part squarefree <n> repeated <n>
    <workload> local prime 11 <n> above <n>
    <workload> numeric evaluations <n> approximants <m>
    <workload> <calls> argparse <ms> parse <ms> compute <ms> render <ms> json <ms> main <ms> ms

The digest runs over the exit code and stdout of each first-pass call, and
the path lines print quatdyn's own `_kernel.PATHS`, counted where each path is
decided, over those calls (local prime 11, or above).

The cost line sums the stages of `cli.main` over the calls, each stage the
best of the passes: argparse is the parse_args of the top-level parser and of
each command's parser; parse is cli.parse_algebra, parse_poly and
parse_element; render is Poly.render, Element.render (the echoed algebra's
parameters too) and cli._coordinates, a point's coordinate texts; json is
cli's JSON writer, cli._dumps; main is the whole call, and compute the rest
of it.  A stage called inside another counts to the outer one.

The program is imported from CHECKOUT/src (by default this repository's),
the argv lists from this repository's perfbench, so two checkouts run the
same calls: equal digests mean byte-identical stdout and exit codes, equal
path lines the same paths.  Report only: it checks nothing.  tools/report.lock
holds the 21 lines that are not cost lines, as this tree prints them, for CI
to compare.  Run it from the repository root, where the goldens are read from
tests/golden.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 21)
PASSES = 3
WORKLOADS = ("iterate", "periodic", "roots")
STAGES = ("argparse", "parse", "compute", "render", "json", "main")
LINES = (("poly_mul", "schoolbook", "packed"), ("compose", "packed", "columns"),  # the line, its two counts
         ("compose powers", "schoolbook", "packed"), ("squarefree part", "squarefree", "repeated"),
         ("local prime", "11", "above"), ("numeric", "evaluations", "approximants"))


def _load(checkout: Path) -> None:
    """Import quatdyn from checkout/src and perfbench from this repository."""
    sys.path[:0] = [str(checkout.resolve() / "src"), str(ROOT / "perfbench")]


def _corpus(name: str) -> list[list[str]]:
    """Every distinct argv of the workload at SEEDS, one round each, first built first."""
    import workloads

    seen: dict[str, list[str]] = {}
    for seed in SEEDS:
        for call in workloads.build(name, seed, 1):
            seen.setdefault("\0".join(call.argv), call.argv)
    return list(seen.values())


def _time_stages(costs: dict) -> None:
    """Wrap the stages that cli.main makes to add their times to costs."""
    from quatdyn import cli
    from quatdyn._kernel import Element
    from quatdyn.polynomials import Poly

    busy = []

    def timed(stage, fn):
        def call(*args, **kwargs):
            if busy:  # inside another stage
                return fn(*args, **kwargs)
            busy.append(stage)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                costs[stage] += perf_counter() - t0
                busy.pop()

        return call

    parser = cli.build_parser()
    for p in (parser, *parser.commands.values()):
        p.parse_args = timed("argparse", p.parse_args)
    for name in ("parse_algebra", "parse_poly", "parse_element"):
        setattr(cli, name, timed("parse", getattr(cli, name)))
    Poly.render = timed("render", Poly.render)
    Element.render = timed("render", Element.render)
    cli._coordinates = timed("render", cli._coordinates)
    cli._dumps = timed("json", cli._dumps)  # looked up by name in cli.main


def main() -> int:
    _load(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT)
    from quatdyn._kernel import PATHS
    from quatdyn.cli import main as cli_main

    costs = dict.fromkeys(STAGES, 0.0)
    _time_stages(costs)
    corpora = {name: _corpus(name) for name in WORKLOADS}
    gc.freeze()  # what is loaded so far: each collect then scans only what the calls made
    for name, corpus in corpora.items():
        digest, best = hashlib.sha256(), dict.fromkeys(STAGES, float("inf"))
        PATHS.clear()
        for run in range(PASSES):
            costs.update(dict.fromkeys(STAGES, 0.0))
            for argv in corpus:
                out = io.StringIO()
                gc.collect()
                gc.disable()
                try:
                    t0 = perf_counter()
                    with contextlib.redirect_stdout(out):
                        code = cli_main(argv)
                    costs["main"] += perf_counter() - t0
                finally:
                    gc.enable()
                if not run:
                    key = "\0".join(argv)
                    digest.update(f"{key}\0{code}\0{out.getvalue()}\0".encode())
            if not run:
                print(name, len(corpus), digest.hexdigest())
                counts: Counter = Counter()
                for (label, path), n in PATHS.items():
                    counts[label, "above" if label == "local prime" and path != 11 else str(path)] += n
                for label, a, b in LINES:
                    print(name, label, a, counts[label, a], b, counts[label, b])
            costs["compute"] = costs["main"] - sum(costs[s] for s in ("argparse", "parse", "render", "json"))
            best = {stage: min(best[stage], costs[stage]) for stage in STAGES}
        print(name, len(corpus), " ".join(f"{s} {best[s] * 1e3:.1f}" for s in STAGES), "ms", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
