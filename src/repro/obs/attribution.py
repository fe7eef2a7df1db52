"""Fold traced spans into per-stage cycle breakdowns.

:class:`CycleAttribution` turns a list of finished spans (from
:class:`~repro.obs.trace.Tracer`) into exclusive-cycle totals per span
name and per-span-name charge-category totals — the machinery behind the
paper's Figure 7 breakdown, derived from a real traced run instead of
hand-assembled constants.  (Sweep telemetry folds the always-on cycle
breakdowns instead; see :mod:`repro.obs.events`.)

Invariant used by the benchmarks: because a span's *self* cycles are its
clock advance minus its children's, summing self cycles over every span
equals the total clock advance inside root spans — i.e. the cycles the
engines actually charged while traced work was running.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.obs.trace import Span, Tracer


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


class CycleAttribution:
    """Per-stage cycle accounting over a set of finished spans."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: List[Span] = list(spans)
        self._self: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._charges: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            name = span.name
            self._self[name] = self._self.get(name, 0.0) + span.self_cycles
            self._counts[name] = self._counts.get(name, 0) + 1
            by_cat = self._charges.setdefault(name, {})
            for category, cycles in span.charges.items():
                by_cat[category] = by_cat.get(category, 0.0) + cycles

    @classmethod
    def from_tracer(cls, tracer: Tracer, since: Optional[int] = None) -> "CycleAttribution":
        """Attribution over a tracer's retained spans (optionally windowed).

        ``since`` is a :meth:`~repro.obs.trace.Tracer.mark` value bounding
        the window to spans finished at or after the mark.
        """
        spans = tracer.finished_spans() if since is None else tracer.finished_since(since)
        return cls(spans)

    # -- exclusive (self) cycles ---------------------------------------------------

    def span_names(self) -> List[str]:
        """Sorted names of every span seen."""
        return sorted(self._self)

    def self_cycles(self, name: str) -> float:
        """Exclusive cycles of spans named exactly ``name``."""
        return self._self.get(name, 0.0)

    def self_prefix_total(self, prefix: str) -> float:
        """Exclusive cycles across span names matching ``prefix`` (dotted)."""
        return sum(
            cycles for name, cycles in self._self.items() if _matches(name, prefix)
        )

    def count(self, name: str) -> int:
        """How many spans named exactly ``name`` finished."""
        return self._counts.get(name, 0)

    def total_cycles(self) -> float:
        """Exclusive cycles summed over every span (= traced clock advance)."""
        return sum(self._self.values())

    # -- charge categories ----------------------------------------------------------

    def charges_of(self, name: str) -> Dict[str, float]:
        """Direct charge categories of spans named exactly ``name``."""
        return dict(self._charges.get(name, {}))

    def charges_of_prefix(self, prefix: str) -> Dict[str, float]:
        """Merged direct charges across span names matching ``prefix``."""
        merged: Dict[str, float] = {}
        for name, by_cat in self._charges.items():
            if _matches(name, prefix):
                for category, cycles in by_cat.items():
                    merged[category] = merged.get(category, 0.0) + cycles
        return merged
