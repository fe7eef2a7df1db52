"""Per-thread logical cycle clocks with named cost-breakdown accounting.

Every simulated thread owns a :class:`CycleClock`.  All costs in the system
are charged through ``charge(category, cycles)`` so that any experiment can
recover a full breakdown of where cycles went (paper Figures 6(c), 7, 8).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Tuple

from repro.common import units


class Breakdown:
    """A mapping from cost category to accumulated cycles.

    Categories are free-form dotted strings, e.g. ``"fault.trap"`` or
    ``"io.device"``.  Aggregation by prefix lets benchmarks report either
    fine-grained components or coarse groups.
    """

    def __init__(self) -> None:
        self._cycles: Dict[str, float] = defaultdict(float)

    def add(self, category: str, cycles: float) -> None:
        """Accumulate ``cycles`` under ``category``."""
        if cycles:
            self._cycles[category] += cycles

    def merge(self, other: "Breakdown") -> None:
        """Add every category of ``other`` into this breakdown."""
        for category, cycles in other._cycles.items():
            self._cycles[category] += cycles

    def get(self, category: str) -> float:
        """Cycles charged to exactly ``category``."""
        return self._cycles.get(category, 0.0)

    def prefix_total(self, prefix: str) -> float:
        """Total cycles across all categories starting with ``prefix``."""
        return sum(
            cycles
            for category, cycles in self._cycles.items()
            if category == prefix or category.startswith(prefix + ".")
        )

    def total(self) -> float:
        """Total cycles across every category."""
        return sum(self._cycles.values())

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate ``(category, cycles)`` pairs sorted by category."""
        return iter(sorted(self._cycles.items()))

    def as_dict(self) -> Dict[str, float]:
        """A plain-dict copy of the breakdown."""
        return dict(self._cycles)

    def scaled(self, factor: float) -> "Breakdown":
        """A new breakdown with every category multiplied by ``factor``."""
        result = Breakdown()
        for category, cycles in self._cycles.items():
            result._cycles[category] = cycles * factor
        return result

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.0f}" for k, v in sorted(self._cycles.items()))
        return f"Breakdown({parts})"


class CycleClock:
    """Logical clock for one simulated thread.

    ``now`` is the thread's position on the simulated timeline, in cycles.
    ``charge`` advances the clock and records the cost under a breakdown
    category.  ``wait_until`` models blocking (lock queues, device
    completion): the elapsed gap is recorded as the given category
    (typically ``"idle.lock"`` or ``"idle.io"``) without doing CPU work.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = start
        self.breakdown = Breakdown()
        #: CPI multiplier for active work: >1 when this thread shares a
        #: physical core with another running hyperthread (SMT).  Waits
        #: are unaffected.
        self.cpi_factor = 1.0
        #: Display name for trace export (set by the owning SimThread).
        self.owner_name = ""
        # repro.obs tracing state, managed by the global Tracer: the
        # innermost open span on this clock (charges attribute to it) and
        # the tracer-local (epoch, track-id) pair.  Kept as plain
        # attributes so the disabled-tracing cost is one None check.
        self._obs_span = None
        self._obs_track = None

    def charge(self, category: str, cycles: float) -> None:
        """Advance the clock by ``cycles`` of active work (scaled by SMT)."""
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles} for {category}")
        scaled = cycles * self.cpi_factor
        self.now += scaled
        # Breakdown.add inlined (same module, same zero skip): this runs
        # on every charge of every engine.
        if scaled:
            self.breakdown._cycles[category] += scaled
        span = self._obs_span
        if span is not None:
            span.charge(category, scaled)

    def wait_until(self, time: float, category: str) -> float:
        """Block until ``time`` if it is in the future; return cycles waited."""
        waited = time - self.now
        if waited <= 0:
            return 0.0
        self.now = time
        self.breakdown.add(category, waited)
        span = self._obs_span
        if span is not None:
            span.charge(category, waited)
        return waited

    @property
    def seconds(self) -> float:
        """Wall-clock position of this thread in seconds (at 2.4 GHz)."""
        return units.cycles_to_seconds(self.now)

    def __repr__(self) -> str:
        return f"CycleClock(now={self.now:.0f})"
