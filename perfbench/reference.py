"""A fixed reference kernel that measures how fast this machine runs Python
right now.

Shared 2-core machines drift by 20-40% in speed over tens of seconds, far
more than the changes the benchmark must resolve. The benchmark therefore
times this kernel between passes and reports pass time in units of the
kernel's time. The kernel does not use cbrsim, so a change to the program
moves the ratio in full while a slower machine moves both sides alike.

Its working set (about 25 MB of small objects, dicts and lists, walked in
pointer-chasing order with float math and a heap) is sized like the
simulator's own, because a kernel that fits in cache does not slow down
with the memory contention that slows the simulator.
"""

from __future__ import annotations

import heapq
import math
import random
from time import perf_counter

WORLD_SIZE = 60_000
STEPS = 60_000


class _Site:
    __slots__ = ("x", "y", "links", "seen")


class Reference:
    def __init__(self, seed: int = 7) -> None:
        rng = random.Random(seed)
        self.sites = []
        for _ in range(WORLD_SIZE):
            site = _Site()
            site.x, site.y, site.seen = rng.uniform(0, 400), rng.uniform(0, 400), {}
            self.sites.append(site)
        for site in self.sites:
            site.links = [self.sites[rng.randrange(WORLD_SIZE)] for _ in range(8)]
        self._state = rng.getstate()

    def seconds(self) -> float:
        """Host seconds for one run of the kernel (the same work every call)."""
        t0 = perf_counter()
        rng = random.Random()
        rng.setstate(self._state)
        sites = self.sites
        heap: list = []
        total = 0.0
        here = sites[0]
        for i in range(STEPS):
            there = here.links[i & 7]
            total += math.hypot(here.x - there.x, here.y - there.y)
            there.seen[i & 15] = total
            heapq.heappush(heap, (total, i))
            if len(heap) > 64:
                heapq.heappop(heap)
            here = there if i % 3 else sites[rng.randrange(WORLD_SIZE)]
        return perf_counter() - t0
