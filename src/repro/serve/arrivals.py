"""Seed-deterministic open-loop arrival schedules.

Arrival processes are materialized up front as monotonically increasing
*integer* cycle stamps — a pure function of ``(seed, tag)`` via the
counter-based splitmix64 streams in :mod:`repro.sim.rand`.  Integer
stamps make regeneration byte-identical on every platform (no float
accumulation ambiguity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.rand import exponential_interarrivals

#: Default counter-stream tag for a tenant's arrival gaps (its request
#: plan uses separate tags over the same base; see ``repro.serve.core``).
TAG_ARRIVAL = 101


@dataclass(frozen=True)
class BurstPhase:
    """One phase of a periodic burst trace.

    ``rate_multiplier`` scales the arrival *rate* during the phase: 4.0
    means gaps shrink to a quarter of the Poisson draw (a burst), 0.5
    means they double (a lull).
    """

    duration_cycles: int
    rate_multiplier: float

    def __post_init__(self) -> None:
        if self.duration_cycles <= 0:
            raise ValueError("phase duration must be positive")
        if self.rate_multiplier <= 0:
            raise ValueError("rate multiplier must be positive")


def poisson_schedule(
    base: int, count: int, mean_gap_cycles: float, tag: int = TAG_ARRIVAL
) -> List[int]:
    """``count`` Poisson-process arrival stamps with the given mean gap.

    Stamps are cumulative sums of :func:`exponential_interarrivals` gaps,
    so the schedule is strictly increasing (gaps are clamped to >= 1).
    """
    gaps = exponential_interarrivals(base, tag, count, mean_gap_cycles)
    stamps: List[int] = []
    now = 0
    for gap in gaps:
        now += gap
        stamps.append(now)
    return stamps


def burst_schedule(
    base: int,
    count: int,
    mean_gap_cycles: float,
    phases: Sequence[BurstPhase],
    tag: int = TAG_ARRIVAL,
) -> List[int]:
    """Trace-driven bursty arrivals: a Poisson base process modulated by a
    periodic phase trace.

    Each exponential gap is divided by the rate multiplier of the phase
    the *previous* arrival landed in (position ``now mod trace period``),
    so bursts compress gaps and lulls stretch them while every stamp
    remains an integer pure function of ``(base, tag, mean, phases)``.
    """
    if not phases:
        raise ValueError("need at least one burst phase")
    period = sum(phase.duration_cycles for phase in phases)
    gaps = exponential_interarrivals(base, tag, count, mean_gap_cycles)
    stamps: List[int] = []
    now = 0
    for gap in gaps:
        position = now % period
        for phase in phases:
            if position < phase.duration_cycles:
                break
            position -= phase.duration_cycles
        now += max(1, round(gap / phase.rate_multiplier))
        stamps.append(now)
    return stamps
