"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host the speed of one CPU drifts by up to a factor of two within
minutes, so raw timings of the same code differ between runs by more than a
regression bound. The workloads run this kernel between their ops and divide
each timing by the speed factor around it: the median time of the nearby
kernel runs over ``NOMINAL_S``. Timings then read as if the kernel had taken
``NOMINAL_S``.

The library's hot paths are bound by interpreter dispatch, not arithmetic,
so the kernel is interpreter-bound too: dictionary lookups of CJK
characters, list and tuple building, and integer arithmetic. On the 2-CPU
box the bounds were set on, it tracked per-utterance ``predict`` latency
three times better than a numpy matrix-vector kernel did. It uses no
intentnet code, so a change to the library cannot move it: a faster library
still reads faster.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Kernel time the normalised timings are scaled to: roughly its median on
# a quiet 2-CPU x86-64 box (Python 3.11).
NOMINAL_S = 150e-6

# A timing is scaled by at least this many ticks, the nearest in time.
LOCAL_TICKS = 16

_TABLE = {chr(0x4E00 + i): i for i in range(3000)}
_CHARS = [chr(0x4E00 + (i * 37) % 3500) for i in range(800)]


def _kernel() -> int:
    out = []
    for ch in _CHARS:
        out.append((_TABLE.get(ch, 1), len(out) & 7))
    return sum(a * b for a, b in out)


class Reference:
    """Runs the kernel on demand and keeps (start, end, timed start) in ns."""

    def __init__(self):
        self.ticks: list[tuple[int, int, int]] = []
        self._starts: list[int] = []

    def tick(self) -> None:
        """Run the kernel twice and time the second run.

        The first run refills the caches that the workload's last op
        evicted, so the timed run sees the machine, not the op before it.
        """
        start = time.perf_counter_ns()
        _kernel()
        middle = time.perf_counter_ns()
        _kernel()
        self.ticks.append((start, time.perf_counter_ns(), middle))
        self._starts.append(start)

    def factor(self, start: int | None = None, end: int | None = None) -> float:
        """Speed relative to nominal around [start, end] (ns); above 1 when slow.

        Uses the ticks that start inside the interval, widened to the
        ``LOCAL_TICKS`` nearest when fewer do; all ticks when no interval.
        """
        i, j = 0, len(self.ticks)
        if start is not None:
            i = bisect.bisect_left(self._starts, start)
            j = bisect.bisect_right(self._starts, end)
            if j - i < LOCAL_TICKS:
                i = max(0, (i + j - LOCAL_TICKS) // 2)
                j = min(len(self.ticks), i + LOCAL_TICKS)
                i = max(0, j - LOCAL_TICKS)
        window = self.ticks[i:j]
        return statistics.median(b - m for _, b, m in window) / 1e9 / NOMINAL_S

    def seconds_between(self, start: int, end: int) -> float:
        """Time spent in ticks that lie inside [start, end] (ns clock)."""
        return sum(b - a for a, b, _ in self.ticks if start <= a and b <= end) / 1e9
