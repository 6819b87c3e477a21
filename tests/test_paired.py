"""benchmarks/paired.py: the summary of paired runs, on fixed numbers, and
one whole comparison of two stub trees whose perfbench/run.py prints a
fixed result."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "paired.py")
_spec = importlib.util.spec_from_file_location("paired", _PATH)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)


def test_summary_of_a_lower_is_better_metric():
    s = paired.summarize([10, 11, 12, 13, 14], [9, 10, 11, 12, 15], "lower")
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (11, 12, 13)
    assert s["change_median"] == 11
    assert s["worse_by"] == pytest.approx(-1 / 12)
    # four pairs won, one lost; a difference of 1 inside an IQR of 2
    assert (s["wins"], s["pairs"], s["resolved"]) == (4, 5, False)


def test_summary_of_a_higher_is_better_metric_counts_ties_for_neither():
    s = paired.summarize([1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 1.0, 0.5], "higher")
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (1.0, 1.0, 1.0)
    assert s["change_median"] == 1.5
    assert s["worse_by"] == pytest.approx(-0.5)
    assert (s["wins"], s["resolved"]) == (2, True)


def test_summary_of_one_pair_and_of_unpaired_runs():
    s = paired.summarize([4.0], [5.0], "lower")
    assert (s["parent_q1"], s["parent_q3"], s["worse_by"], s["wins"], s["resolved"]) == (4.0, 4.0, 0.25, 0, True)
    with pytest.raises(ValueError):
        paired.summarize([1, 2], [1], "lower")
    with pytest.raises(ValueError):
        paired.summarize([], [], "lower")


STUB = """import json, os
assert not os.path.exists(os.path.join("src", "fourfold", "__pycache__"))
assert not os.path.exists(".perfbench")
os.makedirs(".perfbench")
value = float(open("value").read())
print("perfbench stub")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"wall_s": {"value": value, "unit": "s"}}}))
"""


def _stub_tree(root, value):
    os.makedirs(os.path.join(root, "perfbench"))
    os.makedirs(os.path.join(root, "src", "fourfold", "__pycache__"))
    with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
        f.write(STUB)
    with open(os.path.join(root, "value"), "w") as f:
        f.write(str(value))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
        json.dump({"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}]}, f)
    return str(root)


def test_a_comparison_clears_the_caches_before_every_run_and_records_each(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "parent", 2.0)
    change = _stub_tree(tmp_path / "change", 3.0)
    out = tmp_path / "bench.json"
    assert paired.main([parent, change, "--workload", "extensions", "--seed", "1", "--pairs", "2",
                        "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "wall_s" in printed and "worse by +50.0%" in printed and "over bound 0.2" in printed
    record = json.loads(out.read_text())
    assert record["commits"] == {"parent": None, "change": None}
    assert (record["seed"], record["pairs"], record["seconds"]) == (1, 2, 20)
    work = record["workloads"]["extensions"]
    assert [r["metrics"]["wall_s"]["value"] for r in work["runs"]["change"]] == [3.0, 3.0]
    assert work["summary"]["wall_s"]["wins"] == 0
