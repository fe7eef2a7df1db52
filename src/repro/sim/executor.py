"""Operation-granularity discrete-event executor.

Simulated threads are Python iterators: each ``next()`` performs exactly one
application-level operation (a KV get, one BFS step, one microbenchmark
access), mutating shared simulation state and charging cycles to the
thread's clock.  The executor always steps the thread whose clock is
furthest behind, so shared structures (caches, freelists, lock timelines)
are touched in simulated-time order — the property that makes the lock and
device timeline models meaningful.

This gives deterministic, single-OS-thread simulation of up to the paper's
32 hardware threads (DESIGN.md Section 4, item 1).

Batched (epoch) mode
--------------------

Both modes share one scheduling loop with **min-run continuation**:
after stepping a thread, keep stepping it as long as it would be popped
next anyway (its ``(clock, order)`` key is still below the heap top).
This is the identical schedule by construction.

``Executor(batched=True)`` enables the high-throughput scheduler: hit-run
run-ahead, without changing any simulated outcome (DESIGN.md "The
batching invariant" has the full argument).  Before each step the
executor publishes ``thread.run_horizon = heap_top_clock + quantum``;
workloads may retire a *run* of consecutive pure cache-hit operations up
to that horizon in one step (via ``MmioEngine.retire``), re-entering the
heap only on a miss, a lock acquisition, a protection change, or the
horizon (epoch) boundary.

Run-ahead is safe because hit operations only touch state that no other
thread can observe within the quantum: every cross-thread-visible mutation
(PTE downgrade, TLB shootdown, interference post, page-data read for
writeback) sits behind at least :data:`MIN_SYNC_PREAMBLE_CYCLES` of
charges from its operation's start, while a hit op finishes all its
interactions within :data:`HIT_INTERACTION_BOUND_CYCLES` of *its* start.
With ``SYNC_HORIZON_CYCLES + HIT_INTERACTION_BOUND_CYCLES <
MIN_SYNC_PREAMBLE_CYCLES``, no run-ahead hit can overlap a mutation that
unbatched execution would have ordered before it
(``tests/conformance/test_invariant.py`` checks the inequality, the
conformance suite checks the consequence bit-exactly).

A further mechanism lifts the horizon entirely when the workload can prove
quiescence: ``Executor(..., quiescent=cert)`` takes a certificate callable
(``MmioEngine.run_ahead_unbounded_ok``) that returns True only while *no*
operation any thread can take mutates cross-thread-visible state — every
mapped page has a guaranteed frame (no evictions, hence no shootdowns and
no interference posts), no range has ever been shrunk or downgraded, and
nothing has ever been dirtied (no writeback protection churn).  Under the
certificate, faults only *add* page-table entries; a run-ahead hit either
sees the added entry (identical outcome) or breaks to the heap and retries
in order, so an unbounded hit-run is still bit-exact.  This is what makes
read-dominated in-memory cells (Figure 10a) fast: each thread retires its
entire re-access tail in one executor step.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, List, Optional, Sequence

from repro.common.errors import SimulationError
from repro.obs.metrics import METRICS
from repro.sim.clock import Breakdown, CycleClock
from repro.sim.stats import LatencyRecorder

#: Run-ahead quantum for batched mode: a hit-run may consume operations
#: starting up to this many cycles past the next-scheduled thread's clock.
SYNC_HORIZON_CYCLES = 120.0

#: Upper bound on how far past its start a pure-hit operation interacts
#: with shared state: SMT-scaled load/store (6) + TLB miss walk (100),
#: with a 1.5x CPI safety factor over the modeled 1.4 maximum.
HIT_INTERACTION_BOUND_CYCLES = 1.5 * (6 + 100)

#: Minimum charges any engine pays between an operation's start and its
#: first cross-thread-visible interaction (trap/syscall/msync preambles).
#: Each engine declares its own ``sync_preamble_cycles`` >= this.
MIN_SYNC_PREAMBLE_CYCLES = 300.0

assert SYNC_HORIZON_CYCLES + HIT_INTERACTION_BOUND_CYCLES < MIN_SYNC_PREAMBLE_CYCLES


class SimThread:
    """One simulated software thread pinned to a hardware thread.

    ``core`` is the hardware-thread index (0..31 on the paper's testbed);
    the topology module maps it to a physical core and NUMA node.
    ``tid`` identifies the thread within its stack (seeds and lock
    holders key on it); :meth:`repro.hw.machine.Machine.thread` numbers
    a stack's threads from 0 in creation order.
    """

    def __init__(self, core: int, name: str = "", *, tid: int) -> None:
        self.tid = tid
        self.core = core
        self.name = name or f"thread-{self.tid}"
        self.clock = CycleClock()
        self.clock.owner_name = self.name
        # Stage attribution folds this clock's breakdown at snapshot time.
        METRICS.register_clock(self.clock)
        self.latencies = LatencyRecorder()
        self.ops_completed = 0
        #: Batched-mode run-ahead limit published by the executor before
        #: each step: workloads may retire consecutive pure-hit operations
        #: whose start times do not exceed it (None = unbatched mode).
        self.run_horizon: Optional[float] = None

    def record_op(self, start_cycles: float) -> None:
        """Record completion of one operation started at ``start_cycles``."""
        self.latencies.record(self.clock.now - start_cycles)
        self.ops_completed += 1

    def __repr__(self) -> str:
        return f"SimThread({self.name}, core={self.core}, now={self.clock.now:.0f})"


class RunResult:
    """Outcome of one executor run."""

    def __init__(self, threads: Sequence[SimThread]) -> None:
        self.threads = list(threads)

    @property
    def makespan_cycles(self) -> float:
        """Finish time of the slowest thread (total elapsed simulated time)."""
        if not self.threads:
            return 0.0
        return max(t.clock.now for t in self.threads)

    @property
    def total_ops(self) -> int:
        """Operations completed across all threads."""
        return sum(t.ops_completed for t in self.threads)

    def throughput_ops_per_sec(self) -> float:
        """Aggregate throughput over the makespan."""
        from repro.sim.stats import throughput_ops_per_sec

        return throughput_ops_per_sec(self.total_ops, self.makespan_cycles)

    def merged_latencies(self) -> LatencyRecorder:
        """All threads' operation latencies in one recorder."""
        merged = LatencyRecorder()
        for t in self.threads:
            merged.merge(t.latencies)
        return merged

    def merged_breakdown(self) -> Breakdown:
        """All threads' cycle breakdowns merged."""
        merged = Breakdown()
        for t in self.threads:
            merged.merge(t.clock.breakdown)
        return merged


class Executor:
    """Runs a set of (thread, workload-iterator) pairs to completion.

    ``batched`` enables batched mode: before each step the executor
    publishes a run-ahead horizon on the thread (``thread.run_horizon``).
    The quantum is :data:`SYNC_HORIZON_CYCLES`, the bound under which
    batched execution is provably bit-identical to unbatched execution
    (module docstring).  Unbatched mode is the pristine per-op reference
    and ignores ``quiescent``.
    """

    def __init__(
        self,
        batched: bool = False,
        quiescent: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._entries: List[tuple] = []
        self.batched = batched
        #: Optional certificate callable (e.g.
        #: ``MmioEngine.run_ahead_unbounded_ok``): while it returns True,
        #: no operation any thread can take mutates cross-thread-visible
        #: state, so the published horizon is unbounded instead of
        #: ``top + quantum`` and a pure-hit thread retires its whole
        #: remaining run in one step.  Only consulted in batched mode
        #: when no two runnable threads share a hardware thread.
        self.quiescent = quiescent

    def add(self, thread: SimThread, workload: Iterable) -> None:
        """Register ``thread`` to execute operations from ``workload``.

        ``workload`` must be an iterable whose iterator performs one
        operation per ``next()`` call (yielded values are ignored).
        """
        self._entries.append((thread, iter(workload)))

    def run(self, max_ops: Optional[int] = None) -> RunResult:
        """Step threads in min-clock order until all workloads finish.

        One loop serves both modes: a stepped thread keeps running while
        its ``(clock, order)`` key stays below the heap top — exactly
        when a pop would return it again, so min-run continuation is the
        identical schedule by construction.  Batched mode also publishes
        a run-ahead horizon before each step; unbatched mode leaves
        ``thread.run_horizon`` None.  Threads sharing a hardware thread
        would expose each other's TLB state inside a run-ahead window,
        so the horizon degrades to zero quantum when any two runnable
        threads share a core.

        ``max_ops`` bounds total executor steps as a runaway guard (in
        batched mode one step may retire a whole hit-run of operations).
        """
        batched = self.batched
        quantum = SYNC_HORIZON_CYCLES
        cores = [thread.core for thread, _ in self._entries]
        if len(set(cores)) != len(cores):
            quantum = 0.0
        quiescent = self.quiescent if quantum > 0.0 else None

        heap: List[tuple] = []
        for order, (thread, it) in enumerate(self._entries):
            thread.run_horizon = None
            heap.append((thread.clock.now, order, thread, it))
        heapq.heapify(heap)

        steps = 0
        try:
            while heap:
                _, order, thread, it = heapq.heappop(heap)
                top = heap[0] if heap else None
                while True:
                    if batched:
                        if top is None or (quiescent is not None and quiescent()):
                            thread.run_horizon = math.inf
                        else:
                            thread.run_horizon = top[0] + quantum
                    before = thread.clock.now
                    try:
                        next(it)
                    except StopIteration:
                        break
                    now = thread.clock.now
                    if now < before:
                        raise SimulationError(
                            f"{thread.name} moved backwards in time "
                            f"({before:.0f} -> {now:.0f})"
                        )
                    steps += 1
                    if max_ops is not None and steps > max_ops:
                        raise SimulationError(
                            f"executor exceeded max_ops={max_ops}"
                        )
                    # (now, order) > top[:2], without building tuples.
                    if top is not None and (
                        now > top[0] or (now == top[0] and order > top[1])
                    ):
                        heapq.heappush(heap, (now, order, thread, it))
                        break
                    # Still the scheduling minimum: continue without a
                    # heap round-trip (identical schedule by construction).
        finally:
            for thread, _ in self._entries:
                thread.run_horizon = None

        return RunResult([t for t, _ in self._entries])

