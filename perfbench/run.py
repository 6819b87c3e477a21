"""End-to-end benchmark of fourfold.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fourfold checkout.  Each pass runs the workload's
whole seeded query list in a fresh interpreter (worker.py), so every pass
pays cold caches, resolution building and group-law checks as a user's
process does.  Passes start while they are expected to end within
--seconds, and every timing is a median over passes.  A run makes at
least MIN_PASSES passes, or with --trace 1 one untraced and one traced.
Every end-to-end timing is scaled to one fixed host speed by the probe in
speed.py; the summary lines also print the unscaled values.  Every
answer is checked against an oracle; a query that raises, hits its time
or memory cap, or fails its oracle is counted in `failed`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones plus trace.overhead_frac, from unscaled wall times.  The
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# Set-up alone is short and noisy, so a --trace 0 run starts this many
# workers that stop once their inputs are ready; setup_s is their median.
SETUP_ONLY_SPAWNS = 12
SETUP_LIMIT_S = 20.0
# After MIN_PASSES, no pass starts unless it is expected to end inside
# the --seconds window.  No pass starts unless it is expected to end
# within RUN_LIMIT_S of the run's start, and the worker stops starting
# queries after it, so a run ends well inside three minutes even when a
# change makes it slow.
RUN_LIMIT_S = 140.0
KILL_GRACE_S = 20.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _spawn(root, args, trace, budget_s, setup_only=False):
    """Run one pass; return (seconds from spawn to ready, worker output or None, why not)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", root, "--workload", args.workload, "--seed", str(args.seed),
        "--budget-s", "%.3f" % budget_s, "--trace", str(trace),
    ]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget_s + KILL_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None, "killed after %.0f s" % (budget_s + KILL_GRACE_S)
    if proc.returncode != 0:
        return None, None, "worker exited %d: %s" % (proc.returncode, err.strip()[-2000:])
    try:
        doc = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return None, None, "worker printed no result"
    return doc["ready"] - spawned, doc, None


class Checker:
    """Counts attempted and failed queries over every pass of a run."""

    def __init__(self, queries):
        self.queries = queries
        with open(os.path.join(HERE, "data", "pinned.json"), encoding="utf-8") as fh:
            self.pinned = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self._verdicts = {}

    def lost_pass(self, why):
        self.attempted += len(self.queries)
        self.failed += len(self.queries)
        self.reasons.append("pass lost: %s" % why)

    def check(self, records):
        self.attempted += len(self.queries)
        for i, q in enumerate(self.queries):
            rec = records[i] if i < len(records) else {"status": "missing", "error": "no record"}
            if rec["status"] != "ok":
                errors = ["%s: %s" % (rec["status"], rec.get("error", ""))]
            else:
                key = (i, json.dumps(rec["out"], sort_keys=True))
                if key not in self._verdicts:
                    try:
                        self._verdicts[key] = workloads.query_errors(q, rec["out"], self.pinned)
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        self._verdicts[key] = ["malformed output: %s: %s" % (type(exc).__name__, exc)]
                errors = self._verdicts[key]
            if errors:
                self.failed += 1
                self.reasons.append("query %d %s: %s" % (i, _describe(q), "; ".join(errors)))


def _describe(q):
    if q["kind"] == "group_homology":
        return "H_%d(%s; w=%s)" % (q["degree"], q["orders"], q["signs"])
    if q["kind"] == "lens_family":
        return "lens(%d,%d,%d)" % (q["p"], q["q1"], q["q2"])
    return q["key"]


def _nearest_rank(sorted_values, frac):
    k = max(1, math.ceil(frac * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def _run_passes(root, args, traces):
    """Run passes cycling through `traces` until the window is used."""
    run_started = time.monotonic()
    min_cycles = 1 if len(traces) > 1 else MIN_PASSES
    passes = []
    durations = []
    cycles = 0
    checker = Checker(workloads.make_queries(args.workload, args.seed)[: args.limit])
    setups = []
    for _ in range(0 if args.trace else SETUP_ONLY_SPAWNS):
        left = SETUP_LIMIT_S - (time.monotonic() - run_started)
        if left <= 0:
            break
        (setup, doc, why), factor = speed.bracketed(lambda: _spawn(root, args, 0, left, setup_only=True))
        if doc is None:
            raise SystemExit("perfbench: set-up failed: %s" % why)
        setups.append((setup, factor))
    window_started = time.monotonic()
    while True:
        for trace in traces:
            t0 = time.monotonic()
            budget = max(1.0, RUN_LIMIT_S - (t0 - run_started))
            _, doc, why = _spawn(root, args, trace, budget)
            durations.append(time.monotonic() - t0)
            if doc is None:
                checker.lost_pass(why)
                continue
            checker.check(doc["queries"])
            passes.append((trace, doc))
        cycles += 1
        now = time.monotonic()
        cycle_s = statistics.median(durations) * len(traces)
        if cycles >= min_cycles and now - window_started + cycle_s > args.seconds:
            break
        if now - run_started + cycle_s > RUN_LIMIT_S:
            break
    return passes, setups, checker


def _end_to_end(untraced, setups):
    # A pass's wall time is scaled by the mean host speed over the pass, a
    # query's latency by the host speed around it.  Each query's latency is
    # its median over the passes, so a burst of host load in one pass does
    # not move the percentiles.
    per_pass = len(untraced[0]["queries"])
    latencies = sorted(
        statistics.median(doc["queries"][i]["ms"] * doc["queries"][i]["speed"] for doc in untraced)
        for i in range(per_pass)
    )
    p90, beyond = _nearest_rank(latencies, 0.9)
    values = {
        "setup_s": statistics.median(s * f for s, f in setups),
        "wall_s": statistics.median(doc["wall_s"] * doc["speed"] for doc in untraced),
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": p90,
        "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for doc in untraced),
    }
    n = len(untraced)
    notes = {
        "setup_s": "median of %d set-ups; unscaled median %.4f s" % (
            len(setups), statistics.median(s for s, _ in setups)),
        "wall_s": "median of %d passes, %d queries each; unscaled %s s; host-speed factors %s (%s samples)" % (
            n, per_pass, " ".join("%.3f" % doc["wall_s"] for doc in untraced),
            " ".join("%.3f" % doc["speed"] for doc in untraced),
            " ".join(str(doc["speed_samples"]) for doc in untraced)),
        "query_p50_ms": "median of %d queries' latencies, each the median of %d passes" % (per_pass, n),
        "query_p90_ms": "p90 of %d queries' latencies, each the median of %d passes; %d beyond it" % (per_pass, n, beyond),
        "peak_rss_mb": "median of %d passes" % n,
    }
    return {k: (v, END_TO_END[k], notes[k]) for k, v in values.items()}


def _per_layer(untraced, traced):
    out = {}
    for name, unit in tracer.LAYER_METRICS.items():
        value = statistics.median(doc["layers"][name] for doc in traced)
        out[name] = (value, unit, "median of %d traced passes" % len(traced))
    plain = statistics.median(doc["wall_s"] for doc in untraced)
    with_trace = statistics.median(doc["wall_s"] for doc in traced)
    out["trace.overhead_frac"] = (
        (with_trace - plain) / plain,
        "ratio",
        "traced wall %.4f s against untraced %.4f s" % (with_trace, plain),
    )
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None, help="run only the first N queries (self-test)")
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "fourfold", "__init__.py")):
        print("perfbench: no fourfold sources under %s" % os.path.join(root, "src"), file=sys.stderr)
        return 2

    traces = (0, 1) if args.trace else (0,)
    passes, setups, checker = _run_passes(root, args, traces)
    untraced = [doc for trace, doc in passes if not trace]
    traced = [doc for trace, doc in passes if trace]
    if not untraced or (args.trace and not traced):
        for reason in checker.reasons[:20]:
            print(reason, file=sys.stderr)
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    env = untraced[0]["env"]
    print("perfbench %s seed=%d passes=%d backend=%s python=%s FOURFOLD_BUDGET=%s nproc=%s cpu=%r" % (
        args.workload, args.seed, len(passes), env["backend"], env["python"], env["budget"], env["nproc"], env["cpu"]))
    metrics = _per_layer(untraced, traced) if args.trace else _end_to_end(untraced, setups)
    if args.trace and traced[0]["missing"]:
        print("trace targets missing: %s" % ", ".join(traced[0]["missing"]))
    failed_frac = checker.failed / checker.attempted
    for name, (value, unit, note) in metrics.items():
        print("  %-32s %14.6g %-6s %s" % (name, value, unit, note))
    print("  %-32s %14.6g %-6s %d of %d queries failed" % ("failed_frac", failed_frac, "ratio", checker.failed, checker.attempted))
    for reason in checker.reasons[:20]:
        print("  FAILED %s" % reason)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
