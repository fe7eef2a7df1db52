"""Per-thread logical cycle clocks with named cost-breakdown accounting.

Every simulated thread owns a :class:`CycleClock`.  All costs in the system
are charged through ``charge(category, cycles)`` so that any experiment can
recover a full breakdown of where cycles went (paper Figures 6(c), 7, 8).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, Optional, Tuple

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


def _stepped_sum(total: float, step: float, count: int) -> float:
    """``total`` after ``count`` stepped float adds of ``step``.

    Equals the per-op ``+=`` sequence bit for bit: integer-valued sums
    below 2**53 are exact under any association, so they take one
    multiply; anything else (a CPI-scaled step) replays the adds.
    """
    if step.is_integer() and total.is_integer() and total + step * count < 2.0**53:
        return total + step * count
    for _ in range(count):
        total += step
    return total


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
        #: repro.obs tracing state, written only by the global Tracer: the
        #: innermost open span on this clock (new spans nest under it) and
        #: the tracer-local (epoch, track-id) pair.
        self.obs_span = None
        self.obs_track = None

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

    def wait_until(self, time: float, category: str) -> float:
        """Block until ``time`` if it is in the future; return cycles waited."""
        waited = time - self.now
        if waited <= 0:
            return 0.0
        self.now = time
        self.breakdown.add(category, waited)
        return waited

    def book_run(
        self,
        charges: Iterable[Tuple[Optional[str], float, int]],
        slots_only: bool = False,
    ) -> None:
        """Book a run of stepped charges into the breakdown.

        ``charges`` lists ``(category, step, count)``: ``count`` charges
        of ``step`` already-scaled cycles each (a None category or a zero
        step books nothing).  The breakdown ends bit for bit as that many
        :meth:`charge` calls would leave it: the same stepped float adds,
        the same zero-charge skip, and a category new to the breakdown
        enters it in list order — so listing charges in first-charge
        order keeps its insertion order.  ``now`` is left to the caller,
        which steps it access by access to take latencies.

        ``slots_only`` only inserts the missing categories, at 0.0: the
        run is still going, and a direct ``charge`` is about to land
        after the categories it has charged so far.
        """
        cycles = self.breakdown._cycles
        for category, step, count in charges:
            if category is None or not count or not step:
                continue
            if slots_only:
                if category not in cycles:
                    cycles[category] = 0.0
            else:
                cycles[category] = _stepped_sum(cycles.get(category, 0.0), step, count)

    @property
    def seconds(self) -> float:
        """Wall-clock position of this thread in seconds (at 2.4 GHz)."""
        return units.cycles_to_seconds(self.now)

    def __repr__(self) -> str:
        return f"CycleClock(now={self.now:.0f})"
