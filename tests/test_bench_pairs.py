"""The summary step of ``tools/bench_pairs.py`` on made-up runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.22},
    {"name": "predict_rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.22},
]


def run(pipeline_s, rows_per_s, correct=True, attempted=10, failed=0):
    metrics = {
        "pipeline_s": {"value": pipeline_s, "unit": "s"},
        "predict_rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def test_wins_ties_and_direction():
    parent = [run(1.0, 100.0), run(2.0, 200.0), run(3.0, 300.0), run(4.0, 400.0)]
    # pair 1 ties, pair 2 the change is faster and serves more rows, pairs 3
    # and 4 it is slower and serves fewer
    change = [run(1.0, 100.0), run(1.5, 250.0), run(3.5, 250.0), run(5.0, 300.0, attempted=7, failed=1)]
    entry = bench_pairs.summarize(END_TO_END, parent, change)
    metrics = entry["metrics"]
    assert metrics["pipeline_s"]["change_wins"] == 1
    assert metrics["predict_rows_per_s"]["change_wins"] == 1
    # lower is better for pipeline_s, so a larger change_wins needs smaller values
    flipped = bench_pairs.summarize(END_TO_END, change, parent)["metrics"]
    assert flipped["pipeline_s"]["change_wins"] == flipped["predict_rows_per_s"]["change_wins"] == 2
    side = metrics["pipeline_s"]["parent"]
    assert (side["q1"], side["median"], side["q3"]) == (1.75, 2.5, 3.25)
    assert side["runs"] == [1.0, 2.0, 3.0, 4.0]
    assert metrics["predict_rows_per_s"]["bound"] == 0.22
    assert entry["pairs"] == 4
    assert entry["attempted"] == {"parent": 40, "change": 37}
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["all_checks_passed"]


def test_one_failed_check_marks_the_workload():
    entry = bench_pairs.summarize(END_TO_END, [run(1.0, 1.0)], [run(1.0, 1.0, correct=False)])
    assert not entry["all_checks_passed"]
    side = entry["metrics"]["pipeline_s"]["change"]
    assert side == {"median": 1.0, "q1": 1.0, "q3": 1.0, "runs": [1.0]}
    assert entry["metrics"]["pipeline_s"]["change_wins"] == 0
