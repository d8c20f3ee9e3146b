"""The host's current speed, from a fixed reference loop.

On a shared host the speed of a vCPU drifts: other tenants come and go,
so the same pass can take 1.5x longer a minute later.  ``run.py`` times
:func:`reference_loop` before the first timed pass and after each one,
on the vCPUs the passes run on, and scales the run's times by its mean
reading over :data:`NOMINAL_RATE`, so that drift in the host cancels and
a change in the program shows.

The loop imports nothing from the program, so no change to the program
can speed it up.  It does the kind of work the simulator does: a heap
of small event objects, dict updates, method calls, and short numpy
array operations.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from typing import Sequence

import numpy as np

#: Reference loops per second of the host a scaled time stands for.
NOMINAL_RATE = 40.0

#: Seconds one :func:`rate` reading spends in the loop.
WINDOW_S = 1.0


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time: float, key: int, value: int) -> None:
        self.time = time
        self.key = key
        self.value = value

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


class _Queue:
    def __init__(self) -> None:
        self.heap: list[_Event] = []
        self.totals: dict[int, int] = {}

    def push(self, event: _Event) -> None:
        heapq.heappush(self.heap, event)

    def pop(self) -> _Event:
        event = heapq.heappop(self.heap)
        self.totals[event.key] = self.totals.get(event.key, 0) + event.value
        return event


#: Entries of the pointer-chasing table (about 80 MB of list and ints,
#: more than the last-level cache holds).
TABLE_SIZE = 1 << 21

_table: list[int] = []


def _chase_table() -> list[int]:
    """A random cyclic permutation: ``table[i]`` is the entry after ``i``."""
    if not _table:
        order = np.random.default_rng(3).permutation(TABLE_SIZE)
        table = np.empty(TABLE_SIZE, dtype=np.int64)
        table[order] = np.roll(order, -1)
        _table.extend(table.tolist())
    return _table


def reference_loop(n_events: int = 4000, n_hops: int = 25000) -> int:
    """One unit of reference work; returns a checksum.

    Half of it runs in the cache (events, dicts, small arrays), half
    chases pointers through a table larger than the cache, so that the
    loop slows both when a co-tenant takes the core and when it takes
    the memory bandwidth, as the simulator does.
    """
    rng = random.Random(7)
    queue = _Queue()
    for i in range(256):
        queue.push(_Event(rng.random(), i % 64, i))
    for i in range(n_events):
        event = queue.pop()
        queue.push(_Event(event.time + rng.random(), (event.key * 31 + i) % 64, event.value + 1))
    a = np.arange(4096, dtype=float)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
        a[::7] += 1.0
    table = _chase_table()
    k = 0
    for _ in range(n_hops):
        k = table[k]
    return sum(queue.totals.values()) + k


def rate(cpus: Sequence[int] = (), seconds: float = WINDOW_S) -> float:
    """Reference loops per second over about *seconds* of running it.

    With several *cpus*, the time is split between them, the process
    pinned to each in turn, and the mean rate returned; the process's
    CPU affinity is restored afterwards.
    """
    if len(cpus) < 2:
        return _rate(seconds)
    allowed = os.sched_getaffinity(0)
    try:
        readings = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            readings.append(_rate(seconds / len(cpus)))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(readings) / len(readings)


def _rate(seconds: float) -> float:
    _chase_table()
    start = time.perf_counter()
    n = 0
    while True:
        reference_loop()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return n / elapsed
