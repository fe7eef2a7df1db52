"""Latency and throughput statistics for experiment reporting.

The paper reports average latency, p99 and p99.9 tail latency, and
throughput (ops/sec) for most experiments.  :class:`LatencyRecorder` stores
raw per-operation latencies (cycle counts) and computes those summaries.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence

from repro.common import units


class LatencyRecorder:
    """Accumulates per-operation latencies in cycles.

    Samples are kept in recording order; percentile queries sort into a
    separate cached view, so order-dependent summaries (``tail_mean``) and
    rank-dependent ones (``percentile``) compose in either order.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted_cache: Optional[List[float]] = None

    def record(self, cycles: float) -> None:
        """Record one operation latency."""
        self._samples.append(cycles)
        self._sorted_cache = None

    def extend(self, cycles_list: Sequence[float]) -> None:
        """Record many operation latencies."""
        self._samples.extend(cycles_list)
        self._sorted_cache = None

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one."""
        self._samples.extend(other._samples)
        self._sorted_cache = None

    def samples(self) -> List[float]:
        """A copy of the raw samples, in recording order."""
        return list(self._samples)

    def last(self, n: int) -> List[float]:
        """The most recent ``n`` samples, in recording order."""
        if n <= 0:
            return []
        return self._samples[-n:]

    def _sorted(self) -> List[float]:
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._samples)
        return self._sorted_cache

    @property
    def count(self) -> int:
        """Number of recorded operations."""
        return len(self._samples)

    @property
    def total_cycles(self) -> float:
        """Sum of all recorded latencies."""
        return sum(self._samples)

    def mean(self) -> float:
        """Average latency in cycles (0 when empty)."""
        if not self._samples:
            return 0.0
        return self.total_cycles / len(self._samples)

    def tail_mean(self, fraction: float = 0.5) -> float:
        """Mean of the last ``fraction`` of samples *in recording order*.

        Used to skip warmup (cache-fill) samples.  Recording order is
        preserved regardless of earlier percentile calls.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if not self._samples:
            return 0.0
        start = int(len(self._samples) * (1.0 - fraction))
        tail = self._samples[start:]
        return sum(tail) / len(tail)

    def percentile(self, pct: float) -> float:
        """Latency at percentile ``pct`` (0 < pct <= 100), nearest-rank."""
        if not self._samples:
            return 0.0
        if not 0.0 < pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        ordered = self._sorted()
        # Round away the 1-ulp float error of pct/100*n before ceil(): at
        # exact rank boundaries (99.9% of 1000 samples) the product can
        # land epsilon above the integer and silently shift the rank.
        rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
        return ordered[rank - 1]

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
        if not self._samples:
            return 0.0
        return self._sorted()[-1]

    def histogram(self, buckets: Sequence[float]) -> List[int]:
        """Per-bucket sample counts for ascending upper bounds ``buckets``.

        Returns ``len(buckets) + 1`` counts; the last slot holds samples
        above every bound.  Matches the bucket semantics of
        ``repro.obs.metrics.Histogram``.
        """
        bounds = [float(b) for b in buckets]
        if not bounds or sorted(bounds) != bounds:
            raise ValueError("buckets must be a non-empty ascending sequence")
        counts = [0] * (len(bounds) + 1)
        ordered = self._sorted()
        prev = 0
        # Each bucket holds samples <= its bound (first bound >= value,
        # mirroring Histogram.observe), hence bisect_right edges.
        for i, bound in enumerate(bounds):
            edge = bisect_right(ordered, bound)
            counts[i] = edge - prev
            prev = edge
        counts[-1] = len(ordered) - prev
        return counts

    def summary(self) -> Dict[str, float]:
        """Dict with count/mean/p50/p99/p999/max in cycles."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.p50(),
            "p99": self.p99(),
            "p999": self.p999(),
            "max": self.max(),
        }


def throughput_ops_per_sec(ops: int, elapsed_cycles: float) -> float:
    """Operations per second over an elapsed simulated interval."""
    if elapsed_cycles <= 0:
        return 0.0
    return ops / units.cycles_to_seconds(elapsed_cycles)


def speedup(baseline: float, improved: float) -> float:
    """How many times larger ``baseline`` is than ``improved``.

    Used for the paper's "N.NNx lower/higher" phrasing; returns ``inf``
    when ``improved`` is zero.
    """
    if improved == 0:
        return math.inf
    return baseline / improved
