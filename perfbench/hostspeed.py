"""A fixed reference kernel that measures how fast the host is right now.

The benchmark runs on a few cores of a shared host whose speed swings by a
third or more, both within a second and between whole 30-second runs: a fixed
pure-Python loop's 30-second median moves by ~17% (interquartile range over
ten windows), and the fast and slow periods are long enough that low
percentiles do not escape them.  The kernel therefore runs between every two
timed operations, and each operation's time is rescaled to what it would have
been on a host where the kernel takes ``REFERENCE_S``:

    scaled = raw * REFERENCE_S / median(the WINDOW kernel runs on each side)

One kernel run is as noisy as the host; the median of the six runs nearest
the operation follows the host's slower swings without that noise.

The kernel is a breadth-first search over a fixed random graph, written here
and not taken from ``repro``, so that no change to the program moves it.  It
does the same kind of work as the program (list indexing, dict inserts, a
deque) over a working set of a few MB.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque
from typing import List

clock = time.perf_counter

#: The kernel's time on the reference host (2-vCPU x86-64 VM, Python 3.11);
#: scaled timings read as that host's seconds.
REFERENCE_S = 0.070

#: Kernel graph size: 20,000 vertices, 160,000 random edge slots.
KERNEL_VERTICES = 20_000
KERNEL_DEGREE = 16

#: Kernel runs taken on each side of an operation to rescale it.
WINDOW = 3


class HostSpeed:
    """Times the reference kernel and rescales operation times by it."""

    def __init__(self) -> None:
        rng = random.Random("perfbench-reference-kernel")
        n = KERNEL_VERTICES
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for _ in range(n * KERNEL_DEGREE // 2):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                adjacency[a].append(b)
                adjacency[b].append(a)
        self._adjacency = adjacency
        self.samples: List[float] = []
        self._reached = self._search()

    def _search(self) -> int:
        adjacency = self._adjacency
        dist = {0: 0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = du
                    queue.append(v)
        return len(dist)

    def measure(self) -> int:
        """One timed kernel run; returns its index in ``samples``.

        The kernel allocates no objects the cyclic collector tracks, so it
        needs no collection before it.
        """
        start = clock()
        reached = self._search()
        elapsed = clock() - start
        if reached != self._reached:
            raise RuntimeError("reference kernel gave a different result")
        self.samples.append(elapsed)
        return len(self.samples) - 1

    def last(self) -> int:
        """Index of the latest kernel run: the one before the next operation."""
        if not self.samples:
            raise RuntimeError("no kernel run yet")
        return len(self.samples) - 1

    def rescale(self, raw_s: float, before: int) -> float:
        """``raw_s`` of an operation run right after kernel run ``before``,
        rescaled to the reference host.  Call it once the runs after the
        operation have been taken."""
        nearby = self.samples[max(0, before - WINDOW + 1):before + WINDOW + 1]
        return raw_s * REFERENCE_S / statistics.median(nearby)
