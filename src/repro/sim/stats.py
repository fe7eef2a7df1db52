"""Latency and throughput statistics for experiment reporting.

The paper reports average latency, p99 and p99.9 tail latency, and
throughput (ops/sec) for most experiments.  :class:`LatencyRecorder` stores
raw per-operation latencies (cycle counts) and computes those summaries.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.common import units

#: Samples summed or turned into Python floats per step, so neither
#: needs a temporary as long as the stream.
BLOCK = 1 << 13


class SampleStream:
    """A recorded latency stream: a read-only float64 array.

    The one representation latency streams take in digested state (see
    ``repro.sim.conformance``): it compares by value (``==`` with another
    stream is one bool, as tuple equality was, so ``0.0 == -0.0``; the
    canonical bytes tell those apart), iterates as Python floats, and
    serializes to the same canonical bytes as the tuple of its floats.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array

    def __len__(self) -> int:
        return int(self.array.shape[0])

    def __iter__(self) -> Iterator[float]:
        values = self.array
        for start in range(0, values.shape[0], BLOCK):
            yield from values[start : start + BLOCK].tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleStream):
            return NotImplemented
        return bool(np.array_equal(self.array, other.array))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SampleStream({self.array!r})"


def _running_sum(values: np.ndarray) -> float:
    """``sum(values.tolist())``, bit for bit, in bounded memory.

    CPython's ``sum`` of floats adds left to right from ``0.0``;
    ``np.add.accumulate`` is the same sequential loop (``np.sum`` is
    pairwise and would differ in the last bits).  The running total is
    carried across blocks of :data:`BLOCK` values, so the temporary is
    one block, never the stream's length.
    """
    total = 0.0
    buf = np.empty(BLOCK + 1, dtype=np.float64)
    for start in range(0, values.shape[0], BLOCK):
        part = values[start : start + BLOCK]
        block = buf[: part.shape[0] + 1]
        block[0] = total
        block[1:] = part
        np.add.accumulate(block, out=block)
        total = float(block[-1])
    return total


class LatencyRecorder:
    """Accumulates per-operation latencies in cycles.

    Samples are kept in recording order at 8 bytes each: float64 array
    chunks, then a tail of C doubles that :meth:`record` and list
    :meth:`extend` append to (``record`` *is* the tail's ``append``, so
    recording one latency runs no Python frame).  :meth:`extend` keeps
    an ndarray as it is, so an analytic window's latencies are stored
    once; the tail is packed into a chunk before it.  Chunks are never
    written after they are stored, so :meth:`merge` shares them.
    Percentile queries sort into a separate cached array, so
    order-dependent summaries (``tail_mean``) and rank-dependent ones
    (``percentile``) compose in either order.
    """

    def __init__(self) -> None:
        self._chunks: List[np.ndarray] = []
        self._tail = array("d")
        self._packed = 0
        self._sorted_cache: Optional[np.ndarray] = None
        #: ``record(cycles)``: record one operation latency.
        self.record = self._tail.append

    def extend(self, cycles_list: Sequence[float]) -> None:
        """Record many operation latencies (an ndarray is kept as it is)."""
        if isinstance(cycles_list, np.ndarray):
            if cycles_list.shape[0]:
                self._pack()
                self._chunks.append(np.asarray(cycles_list, dtype=np.float64))
                self._packed += cycles_list.shape[0]
        else:
            self._tail.extend(cycles_list)

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one."""
        self._pack()
        self._chunks.extend(other._chunks)
        self._packed += other._packed
        self._tail.extend(other._tail)

    def _pack(self) -> None:
        tail = self._tail
        if tail:
            self._chunks.append(np.frombuffer(tail, dtype=np.float64).copy())
            self._packed += len(tail)
            del tail[:]

    def _flat(self) -> np.ndarray:
        """Every sample in one array, which then replaces the chunks."""
        self._pack()
        chunks = self._chunks
        if len(chunks) != 1:
            flat = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
            self._chunks = [flat]
        return self._chunks[0]

    def samples(self) -> SampleStream:
        """The raw samples, in recording order, as a read-only stream."""
        view = self._flat().view()
        view.flags.writeable = False
        return SampleStream(view)

    def last(self, n: int) -> List[float]:
        """The most recent ``n`` samples, in recording order.

        Reads only the chunks those samples sit in.
        """
        if n <= 0:
            return []
        tail = self._tail
        need = n - len(tail)
        if need <= 0:
            return tail[-n:].tolist()
        parts = []
        for chunk in reversed(self._chunks):
            parts.append(chunk[-need:])
            need -= chunk.shape[0]
            if need <= 0:
                break
        out: List[float] = []
        for part in reversed(parts):
            out += part.tolist()
        return out + tail.tolist()

    def _sorted(self) -> np.ndarray:
        # Samples are only ever appended, so the count tells whether the
        # cached order is still the samples'.
        cache = self._sorted_cache
        if cache is None or cache.shape[0] != self.count:
            # Stable, as ``sorted`` is: -0.0 and 0.0 keep recording order.
            cache = self._sorted_cache = np.sort(self._flat(), kind="stable")
        return cache

    @property
    def count(self) -> int:
        """Number of recorded operations."""
        return self._packed + len(self._tail)

    @property
    def total_cycles(self) -> float:
        """Sum of all recorded latencies."""
        return _running_sum(self._flat())

    def mean(self) -> float:
        """Average latency in cycles (0 when empty)."""
        count = self.count
        if not count:
            return 0.0
        return self.total_cycles / count

    def tail_mean(self, fraction: float = 0.5) -> float:
        """Mean of the last ``fraction`` of samples *in recording order*.

        Used to skip warmup (cache-fill) samples.  Recording order is
        preserved regardless of earlier percentile calls.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        count = self.count
        if not count:
            return 0.0
        start = int(count * (1.0 - fraction))
        return _running_sum(self._flat()[start:]) / (count - start)

    def percentile(self, pct: float) -> float:
        """Latency at percentile ``pct`` (0 < pct <= 100), nearest-rank."""
        count = self.count
        if not count:
            return 0.0
        if not 0.0 < pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        # Round away the 1-ulp float error of pct/100*n before ceil(): at
        # exact rank boundaries (99.9% of 1000 samples) the product can
        # land epsilon above the integer and silently shift the rank.
        rank = max(1, math.ceil(round(pct / 100.0 * count, 9)))
        return float(self._sorted()[rank - 1])

    def p50(self) -> float:
        """Median latency in cycles."""
        return self.percentile(50.0)

    def p99(self) -> float:
        """99th-percentile latency in cycles."""
        return self.percentile(99.0)

    def p999(self) -> float:
        """99.9th-percentile latency in cycles."""
        return self.percentile(99.9)

    def max(self) -> float:
        """Maximum recorded latency in cycles."""
        if not self.count:
            return 0.0
        return float(self._sorted()[-1])


def throughput_ops_per_sec(ops: int, elapsed_cycles: float) -> float:
    """Operations per second over an elapsed simulated interval."""
    if elapsed_cycles <= 0:
        return 0.0
    return ops / units.cycles_to_seconds(elapsed_cycles)
