"""The benchmark's argv still parse.

`perfbench/workloads.py` is imported as it is and one round of each workload
is built for a fixed seed.  Every argv goes through the CLI's argument parser
and range checks only, with no computation, so that a removed or renamed
option shows up here in seconds and not as failed benchmark calls.  Only the
calls the benchmark itself marks as usage errors may raise.
"""

import argparse
import sys
from pathlib import Path

import pytest

from quatdyn import UsageError, cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (needs perfbench/ on the path)


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
