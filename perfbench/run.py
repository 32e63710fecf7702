"""quatdyn benchmark: seeded CLI workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload iterate|periodic|roots --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`.  One
client calls `quatdyn.cli.main` in-process, one call at a time (a closed
loop), with stdout captured, and checks every output against `oracles`.  A
run is a fixed number of rounds of the workload's template, set from
--seconds so that a run of the parent commit lasts about that long; the
work, and so every count, depends only on the seed.  The calls then run in
two more sweeps, short calls several times in each, and a call's latency is
the median of its runs, each scaled to a reference host speed (see `speed`).
Each call has a budget of BUDGET_S at that speed; a call over it is
interrupted and counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 makes the same checked
pass, then runs each call once more untraced and once traced (see `layers`),
and prints the per-layer metrics; spans go to
.perfbench/spans-<workload>-<seed>.jsonl.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
`failed` counts calls that failed: wrong output, wrong exit code, an
uncaught exception, or a budget overrun.  Known program defects count there
and in fail_share.  `correct` is false when the benchmark cannot vouch for
its own verdicts: the argv list is not reproducible from the seed, an oracle
accepts a corrupted output, or tracing changed an output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# needs only `fractions`, which `statistics` imports too, and `algebra`
import speed

SRC = Path("src")
SETUP_RUNS = 15
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import quatdyn.cli; print(time.perf_counter() - t)"
)
BUDGET_S = 2.0
# each call runs in this many sweeps over the list; its latency is the median
SWEEPS = 3
# tracing slows calls; the traced pass gets a wider budget so that the calls
# that finished untraced finish traced too and the counts stay comparable
TRACED_BUDGET_FACTOR = 2
# time of one round of each template, all sweeps and their kernel runs, at
# the reference speed (see `speed`), on the parent commit; rounds per run =
# --seconds / this
ROUND_SECONDS = {"iterate": 6.4, "periodic": 3.9, "roots": 6.8}
# the first sweep starts no call once its calls have taken STOP_FACTOR *
# --seconds / SWEEPS at the reference speed, so that a much slower program
# still ends its run in bounded time
STOP_FACTOR = 3


def measure_setup() -> float:
    """Median import time of quatdyn.cli over fresh interpreters, each at the
    reference speed of the kernel runs around it (see `speed`).

    One unmeasured import first, so that every measured one finds compiled
    bytecode, as an installed CLI would.
    """
    times = []
    for i in range(SETUP_RUNS + 1):
        ref0 = speed.reference_s()
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                             text=True, check=True, timeout=60)
        ref1 = speed.reference_s()
        if i:
            times.append(speed.at_reference(float(out.stdout), ref0, ref1))
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("iterate", "periodic", "roots"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "quatdyn" / "cli.py").is_file():
        print("perfbench: run from a quatdyn checkout (src/quatdyn not found)", file=sys.stderr)
        return 2

    # before anything quatdyn would import is loaded here
    setup_s = measure_setup()

    sys.path.insert(0, str(SRC))
    import resource

    import runner

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    bench = runner.Bench(args.workload, args.seed, rounds, BUDGET_S,
                         STOP_FACTOR * args.seconds / SWEEPS)
    plain = bench.run_pass(tracer=None)
    if not args.trace:
        bench.rerun(plain, SWEEPS - 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = bench.finish_checks(plain)
    correct = bench.self_checks(plain)

    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        bench.budget_s *= TRACED_BUDGET_FACTOR
        traced = bench.run_pass(tracer=tracer, reference=plain)
        correct = correct and traced.matches
        out_dir = Path(".perfbench")
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        overhead = (traced.traced_s - traced.untraced_s) / traced.untraced_s
        metrics = tracer.metrics(plain.budget_hits, overhead, traced.exits, traced.json_bytes)
    else:
        metrics = bench.end_to_end(plain, failed, setup_s, peak_rss_mb)

    bench.print_summary(plain, failed)
    print(json.dumps({"correct": correct, "attempted": len(plain.records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
