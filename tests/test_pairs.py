"""The summary of tools/pairs.py on fixed runs: medians, quartiles and pairs won."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def test_summary_of_fixed_runs():
    """Quartiles by statistics.quantiles (n=4, exclusive): of 1..7 they are 2,
    4 and 6.  A pair is won when the change is better in the metric's
    direction; a tie counts for neither side."""
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    change = [2.0, 2.0, 2.0, 5.0, 5.0, 7.0, 9.0]
    s = pairs.summary(parent, change, "higher", "ops/s")
    assert s["parent"] == {"median": 4.0, "q1": 2.0, "q3": 6.0, "runs": parent}
    assert (s["change"]["median"], s["change"]["q1"], s["change"]["q3"]) == (5.0, 2.0, 7.0)
    assert (s["pairs_won"], s["pairs"], s["unit"]) == (4, 7, "ops/s")  # 2 ties, 1 loss
    assert pairs.summary(parent, change, "lower", "ms")["pairs_won"] == 1
    assert pairs.summary([1.0, 1.0], [1.0, 1.0], "lower", "ms")["pairs_won"] == 0


def test_workload_block_keeps_the_order_of_the_runs():
    """Per workload: the seeds, which side ran first as recorded by the caller,
    one summary per end-to-end metric, and correctness and failures per side."""
    def run(v, ok=True, failed=0):  # a run's last line, as perfbench/run.py prints it
        return {"correct": ok, "failed": failed, "metrics": {"ops_per_s": {"value": v, "unit": "ops/s"}}}

    results = {"parent": [run(10.0), run(12.0), run(11.0)],
               "change": [run(13.0), run(12.0, failed=2), run(14.0, ok=False)]}
    first = ["parent", "change", "parent"]
    block = pairs.workload_block([5, 6, 7], first, results,
                                 [{"name": "ops_per_s", "better": "higher", "unit": "ops/s"}])
    assert block["first"] == first and block["batch"] == [1, 1, 1]
    assert block["metrics"]["ops_per_s"]["parent"]["runs"] == [10.0, 12.0, 11.0]
    assert block["metrics"]["ops_per_s"]["pairs_won"] == 2
    assert block["correct"] == {"parent": True, "change": False}
    assert block["failed"] == {"parent": 0, "change": 2}
