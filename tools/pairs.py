"""Alternating pairs of benchmark runs, parent commit against the working tree,
summarised as a BENCH_<n>.json.

    python3 tools/pairs.py --parent COMMIT --workload roots 4901 4910 \
        [--workload iterate 4911 4920 ...] --change TEXT --out BENCH_<n>.json \
        [--host TEXT]

Run it from the repository root.  Each side runs from its own fresh copy in a
temporary directory: the parent from `git archive COMMIT`, the change from
the tracked and the untracked, not ignored, files of the working tree.  Every
run is `perfbench/run.py --workload W --seed S --seconds 13 --trace 0`, as
committed in that copy, with PYTHONDONTWRITEBYTECODE=1, so that each run
compiles the sources on import; one pair per seed, the parent first in the
first pair and then alternately.  The seeds should be ones not used in
development (`tools/report.py` runs seeds 1-20).  The file lists every run, and per
end-to-end metric of BENCHMARK.json each side's median and quartiles
(statistics.quantiles, n=4) and the pairs the change won: where its value is
better in the metric's direction, ties counting for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the length of every run, in perfbench's seconds, equal on both sides
SECONDS = 13
COMMAND = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0"
METHOD = (
    "one parent run and one change run per seed, alternating which side runs first from pair "
    "to pair, each side from its own fresh copy of the tree (git archive of the parent commit; "
    "the tracked and new files of the change), with PYTHONDONTWRITEBYTECODE=1 set, so that every "
    "run compiles the sources on import; medians and quartiles (statistics.quantiles, n=4) over "
    "the seeds; a pair is won when the change's metric is better, ties counting for neither; "
    "written by tools/pairs.py"
)


def side(values: list[float]) -> dict:
    """Median, quartiles and the runs of one side."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summary(parent: list[float], change: list[float], better: str, unit: str) -> dict:
    """One metric over the pairs (parent[k], change[k]); better is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {"parent": side(parent), "change": side(change), "pairs_won": won,
            "pairs": len(parent), "unit": unit}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def copy_parent(commit: str, dest: Path) -> None:
    archive = _git("archive", "--format=tar", commit)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_tree(dest: Path) -> None:
    """The tracked and the untracked, not ignored, files of the working tree."""
    for name in _git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run(copy: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one benchmark run in copy, as a dict."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def workload_block(seeds: list[int], first: list[str], results: dict, metrics: list[dict]) -> dict:
    """The BENCH file's entry of one workload from results[side], one run's last
    line per seed, whose metrics map each name to its {"value", "unit"}; first
    names the side that ran first in each pair."""
    values = {s: {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in metrics}
              for s, runs in results.items()}
    return {
        "seeds": seeds, "batch": [1] * len(seeds),
        "first": first,
        "metrics": {m["name"]: summary(values["parent"][m["name"]], values["change"][m["name"]],
                                       m["better"], m["unit"]) for m in metrics},
        "host_slowdown": None,
        "correct": {s: all(r["correct"] for r in results[s]) for s in results},
        "failed": {s: sum(r["failed"] for r in results[s]) for s in results},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--workload", nargs=3, action="append", required=True,
                    metavar=("NAME", "FIRST_SEED", "LAST_SEED"))
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--host", default="")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent = _git("rev-parse", args.parent).decode().strip()
    out = {"change": args.change, "parent_commit": parent, "change_commit": "the commit that adds this file",
           "command": COMMAND, "method": METHOD, "host": args.host,
           "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for path in copies.values():
            path.mkdir()
        copy_parent(parent, copies["parent"])
        copy_tree(copies["change"])
        for name, first, last in args.workload:
            seeds = list(range(int(first), int(last) + 1))
            results: dict = {"parent": [], "change": []}
            first: list[str] = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                first.append(order[0])
                for s in order:
                    results[s].append(run(copies[s], name, seed))
                    print(name, seed, s, json.dumps(results[s][-1]), file=sys.stderr, flush=True)
            out["workloads"][name] = workload_block(seeds, first, results, metrics)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
