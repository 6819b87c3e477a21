"""Host-speed probe: every timing is scaled to one fixed host speed.

The benchmark runs on shared virtual machines whose speed drifts.  On a
2-vCPU Xeon VM the same pass took anywhere from 7 to 13 s within a few
minutes, and CPU time drifted with wall time, so neither a longer run nor
process CPU time removes it.  A short pure-Python reference, run at fixed
intervals while the pass runs, slows down with the host.  It does not
import fourfold, so no change to fourfold moves it.

`Probe` times the reference every INTERVAL_S of the process's CPU time
from a SIGPROF handler, and keeps the time spent in it apart so that it
can be taken out of the measured times.  A sample's speed is
REFERENCE_S / its time; a time measured on the drifting host times the
mean speed over it is the time at the speed where one sample takes
REFERENCE_S, about the speed of that VM when it is least loaded.
`factor()` is the mean over a whole pass, `local(t0, t1)` the mean over
the samples within LOCAL_S of an interval, since the speed also changes
within a pass.
"""

import bisect
import random
import signal
import time

# One warm reference sample on the 2-vCPU Xeon VM when it is least loaded.
REFERENCE_S = 0.00035
INTERVAL_S = 0.05
EDGE_SAMPLES = 3
LOCAL_S = 0.1

_N = 16
_rng = random.Random(7)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(_N)] for _ in range(_N)]
_PAIRS = [((i * 7919) % 200003, i) for i in range(600)]


def _bareiss():
    """Fraction-free elimination of a fixed integer matrix (big-int arithmetic)."""
    m = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(_N - 1):
        if m[k][k] == 0:
            for r in range(k + 1, _N):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                continue
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, _N):
                row[j] = (pivot * row[j] - a * top[j]) // prev
        prev = pivot
    return m[-1][-1]


def _tables():
    """Tuple keys, dict inserts and small lists (allocation-heavy)."""
    d = {}
    for k, v in _PAIRS:
        d[(k, v & 7)] = [v, k]
    return sum(d[(k, v & 7)][0] for k, v in _PAIRS)


def reference():
    return _bareiss(), _tables()


def sample():
    """(seconds of one warm reference run, seconds spent in all)."""
    t0 = time.perf_counter()
    reference()
    t1 = time.perf_counter()
    reference()
    t2 = time.perf_counter()
    return t2 - t1, t2 - t0


class Probe:
    """Samples the reference from SIGPROF while the process computes."""

    def __init__(self):
        self.times = []
        self.speeds = []
        self.spent = 0.0

    def take(self):
        timed, spent = sample()
        self.times.append(time.perf_counter())
        self.speeds.append(REFERENCE_S / timed)
        self.spent += spent

    def _tick(self, signum, frame):
        self.take()

    def start(self):
        for _ in range(EDGE_SAMPLES):
            self.take()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        for _ in range(EDGE_SAMPLES):
            self.take()

    def factor(self):
        return sum(self.speeds) / len(self.speeds)

    def local(self, t0, t1):
        """Mean speed of the samples within LOCAL_S of [t0, t1]."""
        i = bisect.bisect_left(self.times, t0 - LOCAL_S)
        j = bisect.bisect_right(self.times, t1 + LOCAL_S)
        if i == j:
            return self.factor()
        return sum(self.speeds[i:j]) / (j - i)


def bracketed(fn):
    """Call fn between EDGE_SAMPLES samples on each side; return (its result, factor).

    For work done in another process, such as a worker's start-up, which
    the SIGPROF probe of this process cannot sample.
    """
    probe = Probe()
    for _ in range(EDGE_SAMPLES):
        probe.take()
    result = fn()
    for _ in range(EDGE_SAMPLES):
        probe.take()
    return result, probe.factor()
