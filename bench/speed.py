"""Machine-speed calibration, so timings survive a host whose speed drifts.

On a shared host the speed of a vCPU can switch between levels far apart
(about 1.5x on the 2-vCPU Xeon this benchmark was tuned on) for tens of
seconds at a time, so a raw wall time says as much about the host as about
orgrass.  A `Sampler` runs in a thread of the process doing the work and
times a fixed pure-Python kernel every PERIOD_S seconds, measuring the
thread's own CPU time, so waits for the GIL do not count.  The kernel uses
nothing from orgrass, so no change to orgrass moves it.

A span of `wall` seconds is reported as `wall * factor(t0, t1)`: the mean
of REF_S / kernel time over the samples taken in the span, i.e. the
seconds the span would have taken at the speed where the kernel takes
REF_S.  These are "reference seconds"; on a steady host they differ from
wall seconds only by a constant.
"""

from __future__ import annotations

import threading
import time

PERIOD_S = 0.1
REF_S = 0.001


def kernel() -> int:
    """Fixed interpreter work, about REF_S seconds: integer and dict operations."""
    x = 0x9E3779B97F4A7C15
    table: dict[int, int] = {}
    pivots: dict[int, int] = {}
    for _ in range(700):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = x >> 54
        table[key] = table.get(key, 0) ^ (x & 0xFFFF)
        row = x >> 40
        while row:
            top = row.bit_length()
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(table) + len(pivots)


def _timed() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


class Sampler:
    """Kernel timings, (monotonic time, kernel seconds), from a daemon thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append((time.monotonic(), _timed()))
            if self._stop.wait(PERIOD_S):
                return

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        """End the thread and take one last sample, closing the last span."""
        self._stop.set()
        self._thread.join()
        self.samples.append((time.monotonic(), _timed()))

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per second over [t0, t1]: the samples in it and the next one."""
        inside = [k for t, k in self.samples if t0 <= t <= t1]
        after = [k for t, k in self.samples if t > t1][:1]
        ks = inside + after or [k for _, k in self.samples[-1:]]
        return sum(REF_S / k for k in ks) / len(ks)
