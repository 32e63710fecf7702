"""Closed-loop runner: one client calls `quatdyn.cli.main` in-process.

Untraced calls are timed with `speed.Probe`, which also gives their time at
the reference host speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import signal
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import oracles
import workloads
from quatdyn import cli
from speed import REF_NOMINAL_S, Probe, reference_s


# in each repeat sweep, a call runs as often as fits in SAMPLE_S, at most
# MAX_REPEATS times; a call longer than SAMPLE_S is not repeated
SAMPLE_S = 0.3
MAX_REPEATS = 2


class BudgetExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so the CLI's handlers miss it."""


def _alarm(signum, frame):
    raise BudgetExceeded()


@dataclass
class Record:
    call: workloads.Call
    latency_s: float  # wall time of the first run, kernel runs left out
    code: object  # exit code, "budget" or "uncaught"
    digest: str = ""
    problems: list = field(default_factory=list)
    scaled_s: list = field(default_factory=list)  # one per untraced run, at reference speed

    def latency(self, budget_s) -> float:
        """The median of the scaled runs; a call over budget costs its budget."""
        return budget_s if self.code == "budget" else statistics.median(self.scaled_s)


@dataclass
class Pass:
    records: list = field(default_factory=list)
    wall_s: float = 0.0  # summed wall time of the first run of each call
    untraced_s: float = 0.0  # traced pass: paired untraced and traced time,
    traced_s: float = 0.0  # over calls within budget
    budget_hits: int = 0
    exits: Counter = field(default_factory=Counter)
    json_bytes: int = 0
    matches: bool = True
    samples: dict = field(default_factory=dict)  # kind -> (call, code, out) that passed


def _corrupt(call, code, out):
    """A wrong output the oracle for `call.kind` must reject."""
    if call.kind == "golden":
        return code, out + " "
    if call.kind == "usage_error":
        return 0, out
    payload = json.loads(out)
    result = payload.get("result")
    if call.kind == "compose":
        result["poly"] += " + (1)"
    elif call.kind == "orbit":
        result["points"][-1] += " + 1"
    elif call.kind == "oct-check":
        result["first_failure"] = None if result["first_failure"] else 2
    elif call.kind == "check-periodic":
        result["status"] = "certified_periodic" if result["status"] == "inconclusive" else "inconclusive"
    elif call.kind == "companion":
        result["coefficients"][0] += " + 1"
    elif code == 1:  # an incomplete exact search, claimed complete
        code, payload = 0, {"command": payload["command"], "result": []}
    elif result and "point" in result[0]:
        if "residual" in result[0]:
            result[0]["residual"] = 2 * result[0]["residual"] + 1e-3
        else:
            result[0]["point"] += " + 1"
    elif result:
        result[0]["variant"] = "point"
    else:
        payload["result"] = [{"variant": "point", "class": {"trace": "0", "norm": "1"}, "point": "i"}]
    return code, json.dumps(payload, indent=2) + "\n"


class Bench:
    def __init__(self, workload, seed, rounds, budget_s, stop_after_s):
        self.workload, self.seed, self.rounds = workload, seed, rounds
        self.budget_s, self.stop_after_s = budget_s, stop_after_s
        self.calls = workloads.build(workload, seed, rounds)
        self.memo = oracles.Memo()
        signal.signal(signal.SIGALRM, _alarm)

    def _invoke(self, main, argv, tracer=None, probe=False):
        """Run one call; return its wall time, exit code, stdout and, with
        `probe`, its time at the reference speed.

        The budget is `budget_s` at the reference speed: its wall time grows
        with the host's slowness, read from a kernel run before the call."""
        out, err = io.StringIO(), io.StringIO()
        depth = len(tracer.stack) if tracer else 0
        snapshot = tracer.snapshot() if tracer else None
        clock = Probe() if probe else contextlib.nullcontext()
        # collect between calls, not during them, so that a call is not
        # charged for the garbage of the calls before it
        gc.collect()
        gc.disable()
        slowness = 1.0 if probe else reference_s() / REF_NOMINAL_S
        t0 = perf_counter()
        try:
            try:
                with clock:
                    if probe:
                        slowness = clock.slowness
                    signal.setitimer(signal.ITIMER_REAL, self.budget_s * slowness)
                    try:
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = main(argv)
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
            finally:
                latency = perf_counter() - t0
                gc.enable()
        except BudgetExceeded:
            code = "budget"
            if tracer:
                tracer.reset_frames(depth)
                tracer.restore(snapshot)
        except Exception:  # the CLI let an exception escape: a failed call
            code = "uncaught"
        if probe:
            return clock.wall_s, code, out.getvalue(), clock.scaled_s
        return latency, code, out.getvalue(), None

    def run_pass(self, tracer=None, reference=None) -> Pass:
        """Run every call once, checking outputs (untraced) or comparing them
        with `reference` (traced).  Untraced, start no call once the calls
        have taken `stop_after_s` at the reference speed."""
        result = Pass()
        calls = self.calls if reference is None else [r.call for r in reference.records]
        spent = 0.0
        for i, call in enumerate(calls):
            if reference is None and spent > self.stop_after_s:
                break
            if tracer:
                tracer.call = i
                paired = reference.records[i].code != "budget"
                if paired:
                    # an untraced run right before the traced one: the pair
                    # sees the same machine state, which sets the overhead
                    result.untraced_s += self._invoke(cli.main, call.argv)[0]
                tracer.install()
                try:
                    latency, code, out, _ = self._invoke(tracer.main, call.argv, tracer)
                finally:
                    tracer.uninstall()
                if paired:
                    result.traced_s += latency
                scaled = []
            else:
                latency, code, out, scaled = self._invoke(cli.main, call.argv, probe=True)
                scaled = [scaled]
            digest = hashlib.sha256(out.encode()).hexdigest()
            rec = Record(call, latency, code, digest, scaled_s=scaled)
            result.records.append(rec)
            if reference is None:
                spent += rec.latency(self.budget_s)
            result.wall_s += latency
            result.exits[code] += 1
            result.json_bytes += len(out.encode())
            if code == "budget":
                result.budget_hits += 1
                rec.problems.append(f"over the {self.budget_s} s budget")
            elif code == "uncaught":
                rec.problems.append("uncaught exception")
            elif reference is not None:
                ref = reference.records[i]
                if ref.code != "budget" and (ref.code, ref.digest) != (code, digest):
                    result.matches = False
            else:
                rec.problems += oracles.check(call, code, out, self.memo)
                if not rec.problems and call.kind not in result.samples:
                    result.samples[call.kind] = (call, code, out)
        return result

    def rerun(self, plain: Pass, sweeps: int):
        """Run the calls of `plain` again, `sweeps` more times in the same
        order, adding each run's scaled time to the call's record.

        A call runs up to MAX_REPEATS times in a row in each sweep, as often
        as fits in SAMPLE_S of its first run's scaled time.  A short run holds
        few speed samples and is a noisy sample itself; a long one holds many
        and needs no repeat.  Calls over budget or with an uncaught exception
        are not repeated; a repeat that finishes with another output is a
        failure, and one over budget adds no time."""
        for _ in range(sweeps):
            for rec in plain.records:
                if rec.code in ("budget", "uncaught"):
                    continue
                repeats = min(MAX_REPEATS, int(SAMPLE_S / rec.scaled_s[0]))
                for _ in range(repeats):
                    self._repeat(rec)

    def _repeat(self, rec: Record):
        _, code, out, scaled = self._invoke(cli.main, rec.call.argv, probe=True)
        if code != "budget":
            rec.scaled_s.append(scaled)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if code != "budget" and (code, digest) != (rec.code, rec.digest):
            rec.problems.append("output differs between repeats")

    def finish_checks(self, plain: Pass) -> int:
        """Run the deferred sympy checks; return the number of failed calls."""
        failures = oracles.run_deferred(self.memo.deferred)
        for rec in plain.records:
            rec.problems += failures.get(id(rec.call), [])
        return sum(1 for rec in plain.records if rec.problems)

    def self_checks(self, plain: Pass) -> bool:
        """The argv list follows the seed, and every oracle rejects a
        corrupted output."""
        def argv(seed):
            return [c.argv for c in workloads.build(self.workload, seed, 1)]

        ok = argv(self.seed) == argv(self.seed) and argv(self.seed) != argv(self.seed + 1)
        for kind, (call, code, out) in plain.samples.items():
            bad_code, bad_out = _corrupt(call, code, out)
            memo = oracles.Memo()
            problems = oracles.check(call, bad_code, bad_out, memo)
            problems += oracles.run_deferred(memo.deferred).get(id(call), [])
            if not problems:
                print(f"self-check: the {kind} oracle accepted a corrupted output")
                ok = False
        return ok

    def end_to_end(self, plain: Pass, failed, setup_s, peak_rss_mb):
        lat = sorted(r.latency(self.budget_s) for r in plain.records)
        completed = len(lat) - plain.budget_hits
        values = {
            "ops_per_s": (completed / sum(lat), "ops/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": ((lat[-11] if len(lat) > 10 else lat[-1]) * 1e3, "ms"),
            "fail_share": (failed / len(lat), "share"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def print_summary(self, plain: Pass, failed):
        n = len(plain.records)
        print(f"{self.workload} seed={self.seed}: {n} calls in {self.rounds} rounds, "
              f"{plain.wall_s:.2f} s in cli.main, {plain.budget_hits} over budget, {failed} failed")
        slow = statistics.median(r.latency_s / r.scaled_s[0] for r in plain.records if r.code != "budget")
        print(f"the host ran {slow:.2f}x slower than the reference speed in the first sweep; "
              f"latencies are scaled back to it")
        print(f"latency_tail_ms is the p{100 * max(n - 10, 0) / n:.1f} latency of {n} calls "
              f"(10 calls beyond it)")
        reasons = Counter(f"{r.call.kind}: {p}" for r in plain.records for p in r.problems[:1])
        for reason, count in reasons.most_common(8):
            print(f"  failed x{count}  {reason[:160]}")
