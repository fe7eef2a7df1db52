"""A fixed pure-Python probe of how fast the host runs the interpreter right now.

Shared hosts change speed by up to 2x within seconds (other tenants
contend for the core and its caches), and process CPU time moves with
wall time, so neither isolates the program from the host.  The probe is
a constant piece of interpreter work shaped like the simulator's hot
loops (dict lookups, LRU moves, heap pushes, small allocations) that no
change to ``src/`` can speed up or slow down.  :class:`Sampler` times it
every :data:`INTERVAL_S` while the cells run; scaling a measured time by
``REFERENCE_S / median(probe times)`` gives the time the same work takes
on a host that runs the probe in :data:`REFERENCE_S` seconds.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from collections import OrderedDict
from typing import List

#: Probe time, in seconds, on the quiet reference host (2 vCPU Xeon at
#: 2.0 GHz, CPython 3.11).  Normalised times are stated at this speed.
REFERENCE_S = 0.006

#: Wall time between two probes taken while cells run (~2% overhead).
INTERVAL_S = 0.5


def probe(iterations: int = 5000) -> float:
    """Seconds one fixed batch of interpreter work takes now.

    The collector is paused so that a full collection of the *caller's*
    heap never lands inside the probe; collection resumes afterwards.
    """
    rng = random.Random(1)
    cache: OrderedDict = OrderedDict()
    heap: list = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(iterations):
            key = rng.randrange(4096)
            if key in cache:
                cache.move_to_end(key)
            else:
                cache[key] = (i, key, i ^ key)
                if len(cache) > 1024:
                    cache.popitem(last=False)
            heapq.heappush(heap, (key, i))
            if len(heap) > 512:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Probe the host from a ``SIGALRM`` handler every :data:`INTERVAL_S`.

    The handler runs between bytecodes of whatever the interpreter is
    doing and touches none of its state; ``spent`` is the wall time the
    probes took, which the caller subtracts from its own timing.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, fallback: float) -> float:
        """Factor taking a time measured while sampling to reference speed.

        The median ignores the odd probe stretched by an interrupt.
        """
        return REFERENCE_S / statistics.median(self.samples or [fallback])
