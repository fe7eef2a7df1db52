"""YCSB workload generator (paper Table 1).

=========  ==================================  ================
Workload   Mix                                 Distribution
=========  ==================================  ================
A          50% reads, 50% updates              zipfian
B          95% reads, 5% updates               zipfian
C          100% reads                          zipfian/uniform
D          95% reads, 5% inserts               latest
E          95% scans, 5% inserts               zipfian
F          50% reads, 50% read-modify-write    zipfian
=========  ==================================  ================

The paper's Figure 5 runs workload C with the *uniform* distribution,
1 KB values and 30 B keys; Figure 9 runs all six workloads.  The driver
produces per-thread operation iterators compatible with the executor, and
works against any store exposing ``get``/``put``/``scan``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs import TRACER
from repro.sim.executor import SimThread
from repro.sim.rand import LatestGenerator, ScrambledZipfGenerator, derive_seed

#: Paper value/key sizes (Section 6.1): 1 KB values, 30 B keys.
DEFAULT_VALUE_BYTES = 1024
KEY_WIDTH = 22   # "user" + 18 digits = 22 bytes; padded to 30 below
KEY_PAD = 8

WORKLOADS = {
    "A": {"read": 0.5, "update": 0.5},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.0},
    "D": {"read": 0.95, "insert": 0.05},
    "E": {"scan": 0.95, "insert": 0.05},
    "F": {"read": 0.5, "rmw": 0.5},
}

#: Default distribution per workload (YCSB core properties).
DISTRIBUTIONS = {
    "A": "zipfian",
    "B": "zipfian",
    "C": "zipfian",
    "D": "latest",
    "E": "zipfian",
    "F": "zipfian",
}

MAX_SCAN_LENGTH = 100


def make_key(index: int) -> bytes:
    """YCSB-style 30-byte key for record ``index``."""
    return (b"user" + b"0" * KEY_PAD + f"{index:018d}".encode())


def make_value(index: int, size: int = DEFAULT_VALUE_BYTES) -> bytes:
    """Deterministic value payload for record ``index``."""
    seed = f"value-{index}-".encode()
    reps = size // len(seed) + 1
    return (seed * reps)[:size]


@dataclass
class YCSBConfig:
    """One YCSB run's parameters."""

    workload: str = "C"
    record_count: int = 10_000
    operation_count: int = 10_000
    value_bytes: int = DEFAULT_VALUE_BYTES
    distribution: Optional[str] = None   # None -> workload default
    seed: int = 42
    threads: int = 1

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.distribution is None:
            self.distribution = DISTRIBUTIONS[self.workload]
        if self.distribution not in ("zipfian", "uniform", "latest"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


@dataclass
class YCSBStats:
    """Aggregated outcome counters."""

    reads: int = 0
    updates: int = 0
    inserts: int = 0
    scans: int = 0
    rmws: int = 0
    not_found: int = 0
    scan_items: int = 0

    @property
    def operations(self) -> int:
        """Total operations executed."""
        return self.reads + self.updates + self.inserts + self.scans + self.rmws


class YCSBDriver:
    """Runs YCSB phases against a key-value store."""

    def __init__(self, store, config: YCSBConfig) -> None:
        self.store = store
        self.config = config
        self.stats = YCSBStats()
        self._record_count = config.record_count   # grows with inserts
        self._insert_lock_free_counter = config.record_count

    # -- load phase -----------------------------------------------------------

    def load(self, thread: SimThread, report_every: int = 0) -> None:
        """Insert the initial ``record_count`` records."""
        for index in range(self.config.record_count):
            self.store.put(
                thread, make_key(index), make_value(index, self.config.value_bytes)
            )

    # -- run phase ---------------------------------------------------------------

    def _key_chooser(self, stream: str):
        cfg = self.config
        seed = derive_seed(cfg.seed, stream)
        rng = random.Random(seed)
        if cfg.distribution == "uniform":
            return lambda: rng.randrange(self._record_count)
        if cfg.distribution == "latest":
            latest = LatestGenerator(cfg.record_count, rng=rng)
            self._latest = latest
            return lambda: latest.next()
        zipf = ScrambledZipfGenerator(cfg.record_count, rng=rng)
        return lambda: min(zipf.next(), self._record_count - 1)

    def _next_insert_index(self) -> int:
        index = self._insert_lock_free_counter
        self._insert_lock_free_counter += 1
        self._record_count = self._insert_lock_free_counter
        if hasattr(self, "_latest"):
            self._latest.grow()
        return index

    def run_workload(self, thread: SimThread, ops: int) -> Iterator[None]:
        """Executor-style iterator performing ``ops`` operations."""
        cfg = self.config
        mix = WORKLOADS[cfg.workload]
        op_rng = random.Random(derive_seed(cfg.seed, f"ops-{thread.tid}"))
        choose = self._key_chooser(f"keys-{thread.tid}")
        scan_rng = random.Random(derive_seed(cfg.seed, f"scan-{thread.tid}"))

        ops_sorted = sorted(mix.items())
        for _ in range(ops):
            start = thread.clock.now
            r = op_rng.random()
            cumulative = 0.0
            action = ops_sorted[-1][0]
            for name, weight in ops_sorted:
                cumulative += weight
                if r < cumulative:
                    action = name
                    break
            with TRACER.span("op." + action, thread.clock):
                if action == "read":
                    value = self.store.get(thread, make_key(choose()))
                    self.stats.reads += 1
                    if value is None:
                        self.stats.not_found += 1
                elif action == "update":
                    index = choose()
                    self.store.put(
                        thread, make_key(index), make_value(index, cfg.value_bytes)
                    )
                    self.stats.updates += 1
                elif action == "insert":
                    index = self._next_insert_index()
                    self.store.put(
                        thread, make_key(index), make_value(index, cfg.value_bytes)
                    )
                    self.stats.inserts += 1
                elif action == "scan":
                    length = scan_rng.randint(1, MAX_SCAN_LENGTH)
                    items = self.store.scan(thread, make_key(choose()), length)
                    self.stats.scans += 1
                    self.stats.scan_items += len(items)
                elif action == "rmw":
                    index = choose()
                    value = self.store.get(thread, make_key(index))
                    if value is None:
                        self.stats.not_found += 1
                    self.store.put(
                        thread, make_key(index), make_value(index, cfg.value_bytes)
                    )
                    self.stats.rmws += 1
            thread.record_op(start)
            yield
