"""tools/bench_pairs.py's summary of alternating parent/change pairs,
checked on canned run lines against values worked out by hand."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def canned_runs():
    # (parent run_s, steps_per_s), (change run_s, steps_per_s) per pair: the
    # change wins, ties, loses and wins run_s, and wins, loses, wins and
    # ties steps_per_s. Pair 4's change run gave no result line.
    pairs = [((1.0, 100), (0.9, 110)), ((2.0, 200), (2.0, 190)),
             ((3.0, 300), (3.3, 330)), ((4.0, 400), (3.5, 400))]
    runs = []
    for pair, sides in enumerate(pairs):
        for side, (run_s, steps) in zip(("parent", "change"), sides):
            runs.append({"workload": "w", "pair": pair, "seed": 100 + pair, "side": side,
                         "ran_first": "parent",
                         "result": {"run_s": run_s, "steps_per_s": steps, "correct": True}})
    runs.append({"workload": "w", "pair": 4, "seed": 104, "side": "parent", "ran_first": "parent",
                 "result": {"run_s": 9.0, "steps_per_s": 1, "correct": True}})
    runs.append({"workload": "w", "pair": 4, "seed": 104, "side": "change", "ran_first": "parent",
                 "result": {"correct": False, "error": "Killed"}})
    return runs


def test_the_summary_matches_hand_values():
    runs = canned_runs()
    (workload,) = bench_pairs.summarize(runs, END_TO_END).values()
    assert workload["pairs"] == 5
    assert workload["all_correct"] is False
    assert workload["runs"] == runs
    # No run reports peak_rss_mb, so it has no summary; pair 4 has no change
    # metrics, so only pairs 0-3 count.
    assert set(workload["summary"]) == {"run_s", "steps_per_s"}
    run_s, steps = workload["summary"]["run_s"], workload["summary"]["steps_per_s"]
    # Inclusive quartiles of 1, 2, 3, 4 and of 0.9, 2.0, 3.3, 3.5.
    assert run_s["parent"] == pytest.approx({"median": 2.5, "q1": 1.75, "q3": 3.25})
    assert run_s["change"] == pytest.approx({"median": 2.65, "q1": 1.725, "q3": 3.35})
    assert run_s["change_wins"] == "2/4"
    assert run_s["relative_worsening"] == 0.06  # (2.65 - 2.5) / 2.5
    assert run_s["bound"] == 0.25
    assert steps["parent"] == pytest.approx({"median": 250, "q1": 175, "q3": 325})
    assert steps["change"] == pytest.approx({"median": 260, "q1": 170, "q3": 347.5})
    assert steps["change_wins"] == "2/4"
    assert steps["relative_worsening"] == -0.04  # higher is better: -(260 - 250) / 250


def test_one_pair_gives_its_values_as_median_and_quartiles():
    runs = canned_runs()[:2]
    summary = bench_pairs.summarize(runs, END_TO_END)["w"]["summary"]
    assert summary["run_s"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert summary["run_s"]["change_wins"] == "1/1"
    assert bench_pairs.summarize(runs, END_TO_END)["w"]["all_correct"] is True
