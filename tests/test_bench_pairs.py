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
    per_run = entry["attempted_per_run"]
    assert per_run["parent"] == {"median": 10, "q1": 10, "q3": 10, "runs": [10, 10, 10, 10]}
    assert per_run["change"] == {"median": 10, "q1": 9.25, "q3": 10, "runs": [10, 10, 10, 7]}
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["all_checks_passed"]


def test_report_prints_operations_per_run_beside_the_verdicts():
    # a faster sequence that serves fewer calls: the shrinking serve shows
    parent = [run(1.0, 100.0, attempted=a) for a in (1400, 1500, 1240, 1510)]
    change = [run(0.8, 100.0, attempted=a) for a in (1000, 940, 1075, 937)]
    lines = bench_pairs.report("w", bench_pairs.summarize(END_TO_END, parent, change))
    assert lines[0] == (
        "w pipeline_s: gain (parent 1 [1, 1], change 0.8 [0.8, 0.8], change won 4/4)"
    )
    assert lines[1].startswith("w predict_rows_per_s: unchanged (")
    assert lines[2] == (
        "w operations attempted per run: parent 1450 [1360, 1502.5], "
        "change 970 [939.25, 1018.75]"
    )


def test_one_failed_check_marks_the_workload():
    entry = bench_pairs.summarize(END_TO_END, [run(1.0, 1.0)], [run(1.0, 1.0, correct=False)])
    assert not entry["all_checks_passed"]
    side = entry["metrics"]["pipeline_s"]["change"]
    assert side == {"median": 1.0, "q1": 1.0, "q3": 1.0, "runs": [1.0]}
    assert entry["metrics"]["pipeline_s"]["change_wins"] == 0


def verdicts(parent_s, change_s, parent_rows=None, change_rows=None, change_failed=0):
    """Each metric's verdict over pairs of made-up runs; rows per second
    default to a steady 100 on both sides."""
    parent_rows = parent_rows or [100.0] * len(parent_s)
    change_rows = change_rows or [100.0] * len(change_s)
    parent = [run(s, r) for s, r in zip(parent_s, parent_rows)]
    change = [run(s, r, failed=change_failed) for s, r in zip(change_s, change_rows)]
    metrics = bench_pairs.summarize(END_TO_END, parent, change)["metrics"]
    return {name: m["verdict"] for name, m in metrics.items()}


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


def test_verdict_gain_needs_nine_wins_in_ten_and_a_shift_past_the_quartiles():
    faster = [s - 0.1 for s in PARENT]
    assert verdicts(PARENT, faster)["pipeline_s"] == "gain"
    # 8 of 10 wins is not enough, however large the shift
    mixed = faster[:8] + [s + 0.01 for s in PARENT[8:]]
    assert verdicts(PARENT, mixed)["pipeline_s"] == "unchanged"
    # 10 wins by less than the parent's interquartile range (0.02) is no gain
    assert verdicts(PARENT, [s - 0.005 for s in PARENT])["pipeline_s"] == "unchanged"
    # nor is one where more operations failed than at the parent
    assert verdicts(PARENT, faster, change_failed=1)["pipeline_s"] == "unchanged"
    # unchanged rows per second tie in every pair
    assert verdicts(PARENT, faster)["predict_rows_per_s"] == "unchanged"


def test_verdict_worse_is_relative_to_the_parent_median():
    # bound 0.22: a median 23 % slower is worse, 20 % slower is not
    assert verdicts(PARENT, [s * 1.23 for s in PARENT])["pipeline_s"] == "worse"
    assert verdicts(PARENT, [s * 1.20 for s in PARENT])["pipeline_s"] == "unchanged"


def test_verdict_unresolved_when_either_side_spreads_past_the_bound():
    wide = [0.7, 1.3, 0.7, 1.3, 0.7, 1.3, 0.7, 1.3, 0.7, 1.3]
    assert verdicts(PARENT, wide)["pipeline_s"] == "unresolved"
    assert verdicts(wide, PARENT)["pipeline_s"] == "unresolved"
    # unless every change run beats every parent run: here by less than the
    # parent's interquartile range, so no gain either
    assert verdicts(wide, [0.69] * 10)["pipeline_s"] == "unchanged"


def test_verdict_where_higher_is_better():
    rows = [100.0 * s for s in PARENT]
    more = [r * 1.1 for r in rows]
    assert verdicts(PARENT, PARENT, rows, more)["predict_rows_per_s"] == "gain"
    assert verdicts(PARENT, PARENT, more, rows)["predict_rows_per_s"] == "unchanged"
    assert verdicts(PARENT, PARENT, rows, [r * 0.7 for r in rows])["predict_rows_per_s"] == "worse"
