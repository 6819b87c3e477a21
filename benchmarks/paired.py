"""Paired end-to-end comparison of two fourfold checkouts.

    python3 benchmarks/paired.py PARENT CHANGE --workload W [W ...] --seed S --pairs N [--json PATH]

For each workload in turn, each pair runs `perfbench/run.py --workload W
--seed S --seconds 20 --trace 0` once in each tree, with the interpreter
that runs this script, and the tree that goes first alternates.  Before
every run it deletes the tree's `src/fourfold/__pycache__`,
`perfbench/__pycache__` and `.perfbench/`, so neither side imports
bytecode that the other lacks: under PYTHONDONTWRITEBYTECODE a stale or
missing cache moves setup_s and peak_rss_mb with no change to the code.

For each end-to-end metric of the parent's BENCHMARK.json it prints the
parent's median and quartiles, the change's median, how many pairs the
change won (ties count for neither), and "unresolved" when the parent's
interquartile range exceeds the difference of the medians.  A change
median worse than the parent's by more than the metric's bound is
marked "over bound".  peak_rss_mb also moves with the path of the
checkout: the same commit read 17.33 MB from one directory and 17.49 MB
from another, so a difference of that size says nothing about the code.
--json writes every run, the machine, the Python version and both
commits (null for a tree that is not a git checkout).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

RUN_SECONDS = 20
CACHES = (os.path.join("src", "fourfold", "__pycache__"), os.path.join("perfbench", "__pycache__"), ".perfbench")


def quartiles(values):
    """(q1, median, q3) of a sample, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, better):
    """Compare paired runs of one metric; parent[i] and change[i] are pair i.

    better is "lower" or "higher".  The difference is resolved when it
    exceeds the interquartile range of the parent's runs.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1 if better == "lower" else -1
    q1, median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    return {
        "parent_median": median,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": change_median,
        "worse_by": sign * (change_median - median) / median if median else 0.0,
        "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "resolved": abs(change_median - median) > q3 - q1,
    }


def _commit(tree):
    try:
        out = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _machine():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu, "nproc": os.cpu_count()}


def run_once(tree, workload, seed):
    """One perfbench run in tree, after clearing its caches; its JSON line."""
    for rel in CACHES:
        shutil.rmtree(os.path.join(tree, rel), ignore_errors=True)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("perfbench in %s exited %d:\n%s" % (tree, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(trees, workload, seed, pairs, metrics):
    """Run the pairs of one workload, print its summary, return its record."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed))
        print("%s: pair %d of %d done (%s first)" % (workload, i + 1, pairs, order[0]), file=sys.stderr)
    summary = {}
    print("%s seed=%d, %d pairs" % (workload, seed, pairs))
    for m in metrics:
        name = m["name"]
        s = summary[name] = summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                                      [r["metrics"][name]["value"] for r in runs["change"]], m["better"])
        flags = [] if s["resolved"] else ["unresolved"]
        if s["worse_by"] > m["bound"]:
            flags.append("over bound %g" % m["bound"])
        print("  %-14s parent %.6g [%.6g, %.6g]  change %.6g  worse by %+.1f%%  wins %d/%d  %s" % (
            name, s["parent_median"], s["parent_q1"], s["parent_q3"], s["change_median"],
            100 * s["worse_by"], s["wins"], s["pairs"], " ".join(flags)))
    for side in ("parent", "change"):
        print("  %-14s %d of %d queries failed" % (
            side, sum(r["failed"] for r in runs[side]), sum(r["attempted"] for r in runs[side])))
    print("  note: peak_rss_mb depends on the checkout path as well as the code")
    return {"summary": summary, "runs": runs}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--json", metavar="PATH")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    workloads = {w: compare(trees, w, args.seed, args.pairs, metrics) for w in args.workload}
    if args.json:
        record = {
            "seed": args.seed,
            "pairs": args.pairs,
            "seconds": RUN_SECONDS,
            "machine": _machine(),
            "python": platform.python_version(),
            "commits": {side: _commit(tree) for side, tree in trees.items()},
            "workloads": workloads,
        }
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
