"""Which product and which composition path quatdyn takes on the benchmark's argv lists.

    python3 tools/path_counts.py [CHECKOUT]

Prints three lines per workload, over the same calls as
`tools/output_digest.py` (every distinct argv that `perfbench/workloads.py`
builds for iterate, periodic and roots at seeds 1-20, one round each, run
in-process through `quatdyn.cli.main`):

    <workload> poly_mul schoolbook <n> packed <n>
    <workload> compose packed <n> columns <n>
    <workload> compose powers schoolbook <n> packed <n>

A `Table.poly_mul` call made outside `Table.compose` counts as schoolbook
when it ran `Table.schoolbook_mul`, and as packed otherwise.  A
`Table.compose` call of f of degree m counts as columns when it added its
terms by `schoolbook_mul` into columns (the call that passes `out`), and as
packed otherwise.  It builds the powers g^2, ..., g^(m-1) by products, and
g^m too when it sums on the columns; those of them that ran `schoolbook_mul`
count as schoolbook powers, the rest as packed.  The counts are read from
the calls, not from the rule, so two checkouts that print the same lines
took the same paths.

The program is imported from CHECKOUT/src (by default this repository's);
the argv lists always come from this repository's perfbench.  Run it from
the repository root.
"""

from __future__ import annotations

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 21)


def _spy(Table, counts: Counter) -> None:
    """Wrap poly_mul, compose and schoolbook_mul on Table to fill counts."""
    state = {"compose": 0, "schoolbook": 0, "columns": 0}
    poly_mul, compose, schoolbook_mul = Table.poly_mul, Table.compose, Table.schoolbook_mul

    def spied_schoolbook(self, F, G, norm=False, out=None):
        state["columns" if out is not None else "schoolbook"] += 1
        return schoolbook_mul(self, F, G, norm, out)

    def spied_poly_mul(self, F, G, norm=False):
        before = state["schoolbook"]
        cols = poly_mul(self, F, G, norm)
        if not state["compose"]:
            path = "schoolbook" if state["schoolbook"] > before else "packed"
            counts["poly_mul", path] += 1
        return cols

    def spied_compose(self, F, G, scale):
        columns, schoolbook = state["columns"], state["schoolbook"]
        state["compose"] += 1
        try:
            cols = compose(self, F, G, scale)
        finally:
            state["compose"] -= 1
        summed = "columns" if state["columns"] > columns else "packed"
        m = len(F[0]) - 1
        powers = max(m - 2, 0) + (m > 1 and summed == "columns")
        schoolbook = state["schoolbook"] - schoolbook
        counts["compose", summed] += 1
        counts["powers", "schoolbook"] += schoolbook
        counts["powers", "packed"] += powers - schoolbook
        return cols

    Table.poly_mul, Table.compose, Table.schoolbook_mul = spied_poly_mul, spied_compose, spied_schoolbook


def main() -> int:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT
    sys.path[:0] = [str(checkout.resolve() / "src"), str(ROOT / "perfbench")]
    import workloads
    from quatdyn._kernel import Table
    from quatdyn.cli import main as cli_main

    counts: Counter = Counter()
    _spy(Table, counts)
    for name in ("iterate", "periodic", "roots"):
        seen = set()
        counts.clear()
        for seed in SEEDS:
            for call in workloads.build(name, seed, 1):
                key = "\0".join(call.argv)
                if key in seen:
                    continue
                seen.add(key)
                with contextlib.redirect_stdout(io.StringIO()):
                    cli_main(call.argv)
        print(name, "poly_mul schoolbook", counts["poly_mul", "schoolbook"],
              "packed", counts["poly_mul", "packed"])
        print(name, "compose packed", counts["compose", "packed"],
              "columns", counts["compose", "columns"])
        print(name, "compose powers schoolbook", counts["powers", "schoolbook"],
              "packed", counts["powers", "packed"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
