"""The benchmark's argv still parse, and its oracles accept their outputs.

`perfbench/workloads.py` is imported as it is and one round of each workload
is built for a fixed seed.  Every argv goes through the CLI's argument parser
and range checks only, with no computation, so that a removed or renamed
option shows up here in seconds and not as failed benchmark calls.  Only the
calls the benchmark itself marks as usage errors may raise.

Then every call of that round runs through `cli.main`, and its exit code and
stdout go through `perfbench/oracles.py`, deferred sympy checks included.
The oracles read the printed text back with their own parser, so a slip in
printing fails here, not only in a benchmark run.

Last, every `--poly` and `--point` of a round is parsed and its coordinates
compared with the polynomial and point the benchmark rendered them from,
which `perfbench/algebra.py` computed without quatdyn.
"""

import argparse
import contextlib
import io
from pathlib import Path

import pytest

from quatdyn import Poly, UsageError, cli

import algebra
import oracles
import workloads
from helpers import values

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_benchmark_argv_parse(workload, monkeypatch):
    monkeypatch.chdir(ROOT)  # the golden calls read tests/golden from here
    calls = workloads.build(workload, seed=0, rounds=1)
    assert calls
    parser = cli.build_parser()
    for call in calls:
        ns = argparse.Namespace(command=None)
        try:
            parser.parse_args(call.argv, ns)
            cli._check_arguments(ns)
        except UsageError:
            assert call.kind == "usage_error", call.argv


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_benchmark_calls_pass_their_oracles(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    memo, problems = oracles.Memo(), {}
    calls = workloads.build(workload, seed=0, rounds=1)
    for call in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(call.argv)
        problems[id(call)] = oracles.check(call, code, out.getvalue(), memo)
    for key, found in oracles.run_deferred(memo.deferred).items():
        problems[key] += found
    failed = [(call.argv, problems[id(call)]) for call in calls if problems[id(call)]]
    assert not failed


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_parsed_inputs_equal_the_benchmark_data(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    parser, compared = cli.build_parser(), 0
    for call in workloads.build(workload, seed=3, rounds=1):
        data = call.data
        if "alg" not in data:  # goldens and usage errors carry no data
            continue
        alg = data["alg"]
        ns = argparse.Namespace(command=None)
        parser.parse_args(call.argv, ns)
        spec = cli.parse_algebra(ns.algebra)
        expected_f = data["g"] if call.kind == "companion" else data.get("f")
        if expected_f is None:
            expected_f = algebra.parse(data["f_text"], alg)
        assert values(cli.parse_poly(ns.poly, spec)) == alg.trim(expected_f), call.argv
        compared += 1
        if getattr(ns, "point", None) is not None:
            expected = data["lam"] if "lam" in data else algebra.parse_element(data["lam_text"], alg)
            point = Poly.constant(spec, cli.parse_element(ns.point, spec))
            assert values(point) == alg.trim([expected]), call.argv
            compared += 1
    assert compared >= 20
