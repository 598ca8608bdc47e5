"""The benchmark's own arithmetic: percentiles, open-loop timing, layer
self time and tracing overhead.

Everything here is pure and stdlib-only so ``selftest.py`` can pin it down
without building a cluster.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; below that, one outlier decides the value.
MIN_TAIL_SAMPLES = 10


class PercentileRefused(ValueError):
    """Too few samples beyond the requested percentile."""


def percentile(samples, q: float, tail: int = MIN_TAIL_SAMPLES) -> float:
    """Nearest-rank percentile (the ``ceil(q*n)``-th smallest sample).

    Raises :class:`PercentileRefused` when fewer than ``tail`` samples lie
    beyond the chosen rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be within (0, 1)")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < tail:
        raise PercentileRefused(
            f"p{q * 100:g} needs {tail} samples beyond it; {n} samples leave {n - rank}"
        )
    return ordered[rank - 1]


def split_windows(stamps, values, start: float, end: float, count: int) -> list[list]:
    """``values`` grouped by their ``stamps`` into ``count`` equal windows of
    ``[start, end)``; values stamped outside it are dropped."""
    if count <= 0 or end <= start:
        raise ValueError("need a positive window count and end > start")
    width = (end - start) / count
    windows: list[list] = [[] for _ in range(count)]
    for stamp, value in zip(stamps, values):
        if start <= stamp < end:
            windows[min(count - 1, int((stamp - start) / width))].append(value)
    return windows


# -- open-loop load ------------------------------------------------------------


def due_times(start: float, rate: float, first: int, count: int) -> list[float]:
    """Due times of mutations ``first`` .. ``first + count - 1``: mutation
    ``i`` is due at ``start + i / rate``, whatever happened before."""
    return [start + index / rate for index in range(first, first + count)]


def due_count(start: float, rate: float, now: float, total: int) -> int:
    """How many of ``total`` mutations are due by ``now``."""
    if now < start:
        return 0
    return min(total, int((now - start) * rate) + 1)


def open_loop_latencies(dues, done: float) -> list[float]:
    """Latency of each mutation answered at ``done``, timed from its due time
    (so a backlog shows as latency instead of being hidden)."""
    return [done - due for due in dues]


def lateness(target: float, woke: float) -> float:
    """How late the generator woke for a send due at ``target`` (never negative)."""
    return max(0.0, woke - target)


# -- layer self time -----------------------------------------------------------


class LayerTimer:
    """Self time per layer from nested spans.

    A span's self time is its wall time minus the wall time of the spans it
    directly covers, so the self times of every layer add up to the wall
    time of the outermost spans.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.seconds: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        layer, started, children = self._stack.pop()
        span = self.clock() - started
        self.seconds[layer] += span - children
        if self._stack:
            self._stack[-1][2] += span
        return span

    def wrap(self, function, layer: str):
        """``function`` with every call timed as a span of ``layer``."""

        def timed(*args, **kwargs):
            self.enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                self.exit()

        timed.__wrapped__ = function
        return timed

    def total(self) -> float:
        return sum(self.seconds.values())


def overhead(traced_seconds: float, untraced_seconds: float) -> float:
    """Tracing overhead in percent: traced minus untraced, over untraced,
    for the same amount of work."""
    if untraced_seconds <= 0:
        raise ValueError("untraced time must be positive")
    return (traced_seconds - untraced_seconds) / untraced_seconds * 100.0
