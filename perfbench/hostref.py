"""A fixed computation that measures how fast the host runs at the moment.

The benchmark runs on a few cores of a shared host whose speed swings by half
or more over tens of seconds, because other tenants share its cores and
caches. Timing this kernel just before and just after each workload execution
gives the host's speed around that execution; the end-to-end times are
reported in units of it (see README.md). A workload that runs on a thread
pool is calibrated with the kernel run on a pool of the same size, so that
the reference pays the same thread hand-offs. The kernel mixes what distbeam's
inner loops do: scalar ``math`` phasor sums in a Python loop and small numpy
array operations. It never calls distbeam, and it must stay as it is, or
figures taken before and after a change stop being comparable.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

ROUNDS = 6000
SIZE = 24


def reference_work() -> float:
    """The fixed computation; returns a checksum of it."""
    rng = np.random.default_rng(0)
    phases = rng.uniform(-math.pi, math.pi, SIZE)
    gains = rng.uniform(0.5, 1.5, SIZE)
    total = 0.0
    for r in range(ROUNDS):
        re = im = 0.0
        for g, p in zip(gains.tolist(), phases.tolist()):
            re += g * math.cos(p)
            im += g * math.sin(p)
        total += re * re + im * im
        phases = np.mod(phases + 0.01 * r + math.pi, 2.0 * math.pi) - math.pi
        total += float(np.abs(np.sum(gains * np.exp(1j * phases))) ** 2)
    return total


def time_reference(threads: int = 1) -> float:
    """Wall seconds per ``reference_work``, run ``threads`` times at once on
    a pool of that many threads (inline when ``threads`` is 1)."""
    t0 = time.perf_counter()
    if threads <= 1:
        reference_work()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in pool.map(lambda _: reference_work(), range(threads)):
                pass
    return (time.perf_counter() - t0) / max(threads, 1)
