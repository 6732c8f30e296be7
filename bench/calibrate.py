"""Machine-speed calibration.

On a shared machine the speed of one core drifts by tens of percent over
seconds as neighbours come and go, and it slows every piece of Python code
alike.  The benchmark therefore times a fixed reference task next to the
workload and reports times scaled to a reference speed:

    scaled = measured * REFERENCE_S / reference task time nearby

The reference task mixes what the library spends its time on: a list
convolution (Poincare expansion), an exact big-integer running product
(binomials) and JSON encoding.  It is benchmark code and never changes with
the library, so a faster library shows as a smaller scaled time, while a
slower or faster machine moment does not.
"""

from __future__ import annotations

import bisect
import json
import multiprocessing
import statistics
from time import perf_counter

REFERENCE_S = 0.002  # the reference task's time at the reference speed
BURST = 15  # reference tasks per calibration; their median is the sample
TICK_S = 0.05  # least time between two ticks
WINDOW = 9  # serial samples behind one scale factor
POOLED_WINDOW = 5  # pooled samples (bursts) behind one scale factor


def reference_task() -> int:
    xs = [0] * 1200
    xs[0] = 1
    for d in range(1, 30):
        for i, c in enumerate(xs[: 1200 - d]):
            if c:
                xs[i + d] += c
    out = 1
    for i in range(1, 240):
        out = out * (900 + i) // i
    return len(json.dumps(xs[:400])) + out % 7


def burst_median(count: int) -> float:
    times = []
    for _ in range(count):
        t0 = perf_counter()
        reference_task()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _helper(conn) -> None:
    """A calibration process: one burst per request, until it gets None."""
    while (count := conn.recv()) is not None:
        conn.send(burst_median(count))


class Speedometer:
    """Reference-task timings taken along a run.

    ``tick`` runs one task when at least TICK_S seconds have passed since
    the last; ``burst`` runs BURST at once, for the moments around a phase in
    which the caller must stay idle.  With ``jobs`` > 1 a burst runs in that
    many helper processes at once, as a pool of that size would, and the
    mean of their medians is one sample.  The helpers start here, before the
    caller holds any pass's data, and live until ``close``: a measured
    process reads its children's peak memory before then, so it sees only
    the library's pool workers.
    """

    def __init__(self, jobs: int = 1):
        self.window = WINDOW if jobs == 1 else POOLED_WINDOW
        self.times: list[float] = []
        self.durations: list[float] = []
        self.helpers = []
        ctx = multiprocessing.get_context("fork")
        for _ in range(jobs if jobs > 1 else 0):
            conn, theirs = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self.helpers.append((proc, conn))

    def _one(self) -> None:
        t0 = perf_counter()
        reference_task()
        self.times.append(t0)
        self.durations.append(perf_counter() - t0)

    def tick(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= TICK_S:
            self._one()

    def burst(self) -> None:
        if not self.helpers:
            for _ in range(BURST):
                self._one()
            return
        t0 = perf_counter()
        for _, conn in self.helpers:
            conn.send(2 * BURST)
        medians = [conn.recv() for _, conn in self.helpers]
        self.times.append(t0)
        self.durations.append(statistics.mean(medians))

    def factor_at(self, t: float) -> float:
        """Scale for a time measured at t: the reference speed over the median
        of the ``window`` reference timings nearest to t."""
        i = bisect.bisect_left(self.times, t)
        lo, hi = i, i
        while hi - lo < min(self.window, len(self.times)):
            if lo > 0 and (hi >= len(self.times) or t - self.times[lo - 1] <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def close(self) -> None:
        for proc, conn in self.helpers:
            conn.send(None)
            conn.close()
        for proc, _ in self.helpers:
            proc.join()
        self.helpers = []
