"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

LIMITS = {"homology": 12, "lens-sweep": 60, "extensions": 12}


def _run(workload, trace, cwd=ROOT):
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
        "--limit", str(LIMITS[workload]),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    spec = _spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        doc = _result(workload, trace)
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        units = {name: m["unit"] for name, m in doc["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in spec[section]}
        assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())


def _plant_wrong(q, out):
    """A wrong answer of the same shape as `out`."""
    if q["kind"] == "group_homology":
        return [out[0] + 1, out[1]]
    if q["kind"] == "lens_family":
        return dict(out, equivalent=not out["equivalent"])
    return dict(out, stdout="{}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_planted_wrong_answer_counts_as_failed(workload):
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT, "--workload", workload,
        "--seed", "1", "--limit", str(LIMITS[workload]), "--budget-s", "300",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout.splitlines()[-1])["queries"]
    queries = workloads.make_queries(workload, 1)[: LIMITS[workload]]
    checker = run.Checker(queries)
    checker.check(records)
    assert (checker.attempted, checker.failed) == (LIMITS[workload], 0), checker.reasons
    for i, q in enumerate(queries):
        planted = [dict(rec) for rec in records]
        planted[i]["out"] = _plant_wrong(q, records[i]["out"])
        before = checker.failed
        checker.check(planted)
        assert checker.failed == before + 1, (i, q)


def _self_times(spans):
    child = [0.0] * len(spans)
    for _name, start, end, parent, _query in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p, _q) in enumerate(spans)]


def test_self_times_sum_to_at_most_the_traced_wall():
    doc = _result("homology", 1)
    assert 0 < doc["metrics"]["trace.covered_frac"]["value"] <= 1
    with open(os.path.join(ROOT, ".perfbench", "spans-homology-1.json"), encoding="utf-8") as fh:
        spans = json.load(fh)
    own = _self_times(spans["spans"])
    assert min(own) >= -1e-9
    assert sum(own) <= spans["wall_s"]
    assert {s[4] for s in spans["spans"]} == set(range(LIMITS["homology"]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    counts = ("intmat.snf.calls", "intmat.snf.repeat_frac", "homology.resolution.builds", "groupring.expand.cells")
    first, second = (_result(workload, 1)["metrics"] for _ in range(2))
    assert [first[c] for c in counts] == [second[c] for c in counts]
    assert first["intmat.snf.calls"]["value"] > 0


def test_aliases_are_rebound_and_missing_targets_reported():
    script = """
import sys
sys.path[:0] = [%r, %r]
import fourfold.classify, fourfold.intmat, tracer
t = tracer.Tracer(tracer.TARGETS + (("gone", "fourfold.intmat", "no_such_function"),
                                    ("gone", "fourfold.no_such_module", "f")))
t.install()
snf = fourfold.intmat.smith_normal_form
assert hasattr(snf, "__wrapped__")
assert fourfold.classify.smith_normal_form is snf and fourfold.smith_normal_form is snf
assert t.missing == ["fourfold.intmat:no_such_function", "fourfold.no_such_module:f"], t.missing
fourfold.classify.classify_lens_family(7, 1, 2)
m = t.metrics(1.0)
assert m["trace.missing"] == 2 and m["intmat.snf.calls"] > 0 and m["classify.kreck.s"] > 0, m
""" % (os.path.join(ROOT, "src"), BENCH)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _fake_matrix(data):
    return types.SimpleNamespace(rows=len(data), cols=len(data[0]), data=data)


def _fake_snf(a):
    return types.SimpleNamespace(U=_fake_matrix([[1]]), V=_fake_matrix([[1]]))


def test_repeats_are_keyed_on_exact_entries():
    t = tracer.Tracer(())
    snf = t._wrap("intmat.snf", _fake_snf, t._on_snf)
    assert hash(-1) == hash(-2)
    snf(_fake_matrix([[-1]]))
    snf(_fake_matrix([[-2]]))
    assert t.metrics(1.0)["intmat.snf.repeat_frac"] == 0
    snf(_fake_matrix([[-2]]))
    assert t.metrics(1.0)["intmat.snf.repeat_frac"] == 1 / 3


def test_layer_totals_leave_out_hook_time():
    t = tracer.Tracer(())
    snf = t._wrap("intmat.snf", _fake_snf, lambda args, kwargs, result: time.sleep(0.2))
    kreck = t._wrap("classify.kreck", lambda: snf(_fake_matrix([[1]])), None)
    kreck()
    m = t.metrics(1.0)
    assert m["classify.kreck.s"] < 0.1 and m["classify.self_s"] < 0.1, m


def test_a_failing_hook_is_reported_missing():
    t = tracer.Tracer(())
    snf = t._wrap("intmat.snf", _fake_snf, t._on_snf)
    renamed = types.SimpleNamespace(rows=1, cols=1, entries=[[3]])
    assert snf(renamed).U.data == [[1]]
    snf(renamed)
    assert t.missing == ["hook:intmat.snf"]
    assert t.metrics(1.0)["trace.missing"] == 1


def test_speed_probe_samples_while_computing_and_keeps_its_time_apart():
    probe = speed.Probe()
    probe.start()
    t0 = time.perf_counter()
    cpu_end = time.process_time() + 0.3
    while time.process_time() < cpu_end:
        sum(i * i for i in range(1000))
    t1 = time.perf_counter()
    probe.stop()
    assert len(probe.speeds) > 2 * speed.EDGE_SAMPLES
    assert 0 < probe.spent < t1 - t0
    assert min(probe.speeds) <= probe.local(t0, t1) <= max(probe.speeds)
    assert min(probe.speeds) <= probe.factor() <= max(probe.speeds)


def test_oracles_on_known_groups():
    z2 = oracles.canonical
    assert oracles.group_homology([2, 2], [1, 1], 1) == z2(0, [2, 2])
    assert oracles.group_homology([2, 2], [1, 1], 2) == z2(0, [2])
    assert oracles.group_homology([2, 2], [1, 1], 3) == z2(0, [2, 2, 2])
    assert oracles.group_homology([4], [-1], 2) == z2(0, [2])
    assert oracles.group_homology([4], [-1], 3) == z2(0, [])
    assert oracles.group_homology([12], [1], 5) == z2(0, [4, 3])
    assert oracles.lens_times_circle_homology(5) == [z2(1, []), z2(1, [5]), z2(0, [5]), z2(1, []), z2(1, [])]
    assert not oracles.signed_square(5, 1, 2)
    assert oracles.signed_square(7, 1, 2)
    assert oracles.invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert oracles.em_torsion([[0, 0, 0, 0]] * 6, 3) == z2(6, [3, 3, 3, 3])


def test_without_sources_it_fails_without_a_result():
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("homology", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
