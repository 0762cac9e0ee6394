"""The summary arithmetic of tools/pairs.py on canned perfbench records;
no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def record(failed=0, **values):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}


def test_summary_of_canned_pairs():
    # Four pairs: latency lower is better, throughput higher is better.
    parent = [(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (4.0, 1.0)]
    change = [(0.5, 5.0), (2.5, 3.0), (2.0, 2.5), (3.0, 0.5)]
    runs = {10 + i: (record(lat=p[0], tput=p[1]), record(failed=i % 2, lat=c[0], tput=c[1]))
            for i, (p, c) in enumerate(zip(parent, change))}
    s = pairs.summarize(runs, [("lat", "lower"), ("tput", "higher")])
    assert s["lat"] == {
        "better": "lower",
        "parent_q1_median_q3": [1.75, 2.5, 3.25],
        "change_q1_median_q3": [1.625, 2.25, 2.625],
        "median_change_over_parent": -0.1,
        "change_wins": 3,  # 2.5 against 2.0 loses
        "pairs": 4,
        "runs": {"10": [1.0, 0.5], "11": [2.0, 2.5], "12": [3.0, 2.0], "13": [4.0, 3.0]},
    }
    assert s["tput"]["change_wins"] == 2  # a tie (3.0 and 3.0) is no win
    assert s["tput"]["median_change_over_parent"] == round(2.75 / 2.5 - 1, 4)
    assert s["failed"] == {"10": [0, 0], "11": [0, 1], "12": [0, 0], "13": [0, 1]}
    assert pairs.notes({"w": s}) == ("Median change over parent: w lat -10.0% (change better in 3 of 4); "
                                     "w tput +10.0% (change better in 2 of 4); w failed units: 2 in 8 runs.")


def test_reproduces_bench_30():
    # BENCH_30.json was written by hand before the script existed; its
    # rounded run values give back its summaries.
    doc = json.loads((ROOT / "BENCH_30.json").read_text())
    for by_workload in doc["sets"].values():
        for workload, by_metric in by_workload.items():
            metrics = [(m, s["better"]) for m, s in by_metric.items() if m != "failed"]
            seeds = by_metric[metrics[0][0]]["runs"]
            runs = {int(seed): tuple(record(failed=by_metric["failed"][seed][k],
                                            **{m: by_metric[m]["runs"][seed][k] for m, _ in metrics})
                                     for k in range(2))
                    for seed in seeds}
            got = pairs.summarize(runs, metrics)
            for m, want in by_metric.items():
                if m == "failed":
                    assert got[m] == want
                    continue
                for key in ("parent_q1_median_q3", "change_q1_median_q3"):
                    assert got[m][key] == pytest.approx(want[key], abs=2e-6), (workload, m, key)
                assert {k: v for k, v in got[m].items() if "q1" not in k} == \
                       {k: v for k, v in want.items() if "q1" not in k}, (workload, m)


def test_sides_alternate():
    assert [pairs.first_side(i) for i in range(3)] == [("parent", "change"), ("change", "parent"),
                                                       ("parent", "change")]
