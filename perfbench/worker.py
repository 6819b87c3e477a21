"""One pass of one workload in a fresh interpreter (started by run.py).

The pass caps its own address space, imports fourfold from the
checkout's src/ directory, generates its inputs from the seed, and then
runs every query in a closed loop: the next query starts when the
previous one returns.  It prints one JSON object on stdout with the
set-up timestamp, the pass wall time, each query's latency, status and
output, the peak RSS of the loop, and either the host-speed factor of
the pass (untraced, see speed.py) or the per-layer metrics (traced).
Wall time and latencies leave out the time spent in the speed probe.
"""

import argparse
import json
import os
import resource
import signal
import sys
import time

import speed
import workloads

MEMORY_CAP_BYTES = 1 << 30
QUERY_CAP_S = 60.0


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _import_fourfold(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fourfold
    import fourfold.cli

    if not os.path.abspath(fourfold.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError("fourfold was imported from %s, not from %s" % (fourfold.__file__, src))
    return fourfold


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _environment(ff):
    budget_fn = getattr(getattr(ff, "homology", None), "generator_budget", None)
    return {
        "backend": getattr(ff, "BACKEND", "unknown"),
        "python": sys.version.split()[0],
        "budget": budget_fn() if budget_fn else os.environ.get("FOURFOLD_BUDGET", "default"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _peak_rss_mb():
    """Peak RSS of this process image.

    VmHWM starts afresh at exec; ru_maxrss on Linux also keeps the peak of
    the parent image the worker was forked from.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(args):
    ff = _import_fourfold(args.root)
    queries = workloads.make_queries(args.workload, args.seed)[: args.limit]
    work_dir = os.path.join(args.root, ".perfbench", "inputs", "%s-%d" % (args.workload, args.seed))
    queries = workloads.write_inputs(queries, os.path.join(args.root, "perfbench", "data"), work_dir)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    # The probe runs in untraced passes only, so that no span holds its time.
    tracer = None
    probe = speed.Probe()
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        probe.start()

    deadline = ready + args.budget_s
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    spent = probe.spent
    start = time.perf_counter()
    for i, q in enumerate(queries):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            records.append({"status": "timeout", "ms": 0.0, "error": "run deadline passed before the query started"})
            continue
        if tracer is not None:
            tracer.query = i
        signal.setitimer(signal.ITIMER_REAL, min(QUERY_CAP_S, remaining))
        spent_before = probe.spent
        t0 = time.perf_counter()
        try:
            out = workloads.run_query(ff, q)
            rec = {"status": "ok", "out": out}
        except QueryTimeout:
            rec = {"status": "timeout", "error": "over the per-query time cap"}
        except MemoryError:
            rec = {"status": "memory", "error": "over the memory cap"}
        except Exception as exc:  # a failing query is counted, the pass goes on
            rec = {"status": "error", "error": "%s: %s" % (type(exc).__name__, exc)}
        finally:
            t1 = time.perf_counter()
            probe_s = probe.spent - spent_before
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["ms"] = (t1 - t0 - probe_s) * 1000.0
        rec["t"] = (t0, t1)
        records.append(rec)
    wall = time.perf_counter() - start - (probe.spent - spent)
    if not args.trace:
        probe.stop()
    peak_rss_mb = _peak_rss_mb()
    for rec in records:
        t = rec.pop("t", None)
        if not args.trace:
            rec["speed"] = probe.local(*t) if t else probe.factor()

    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "queries": records,
        "env": _environment(ff),
    }
    if not args.trace:
        result["speed"] = probe.factor()
        result["speed_samples"] = len(probe.speeds)
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        result["missing"] = tracer.missing
        tracer.write(os.path.join(args.root, ".perfbench", "spans-%s-%d.json" % (args.workload, args.seed)), wall)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--budget-s", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop once the inputs are ready")
    args = ap.parse_args()
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_CAP_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    json.dump(run_pass(args), sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
