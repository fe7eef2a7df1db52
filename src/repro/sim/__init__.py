"""Discrete-event simulation core: clocks, locks, stats, randomness."""

from repro.sim.clock import Breakdown, CycleClock
from repro.sim.executor import Executor, RunResult, SimThread
from repro.sim.locks import (
    CacheLineTimeline,
    RWLockTimeline,
    SpinlockTimeline,
    StripedAtomicTimeline,
)
from repro.sim.rand import (
    LatestGenerator,
    ScrambledZipfGenerator,
    ZipfGenerator,
    derive_seed,
    fnv1a_64,
    stream,
)
from repro.sim.stats import LatencyRecorder, throughput_ops_per_sec

__all__ = [
    "Breakdown",
    "CycleClock",
    "Executor",
    "RunResult",
    "SimThread",
    "CacheLineTimeline",
    "RWLockTimeline",
    "SpinlockTimeline",
    "StripedAtomicTimeline",
    "LatestGenerator",
    "ScrambledZipfGenerator",
    "ZipfGenerator",
    "derive_seed",
    "fnv1a_64",
    "stream",
    "LatencyRecorder",
    "throughput_ops_per_sec",
]
