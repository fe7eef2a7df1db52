"""Audit of the batching invariant's arithmetic (DESIGN.md).

Run-ahead is admissible because a pure-hit operation finishes every
shared-state interaction within ``HIT_INTERACTION_BOUND_CYCLES`` of its
start, while every cross-thread-visible mutation sits behind at least
``MIN_SYNC_PREAMBLE_CYCLES`` of charges from *its* operation's start.
These tests pin the inequality and check that each engine's declared
preamble floor actually meets the executor's requirement — if a future
engine (or a cheaper fault path) drops below the floor, this fails
before the conformance suite has to find the divergence empirically.
"""

import math

from repro.common import constants
from repro.hw.machine import Machine
from repro.mmio.aquila import AquilaEngine
from repro.mmio.engine import MmioEngine
from repro.mmio.explicit import ExplicitIOEngine
from repro.mmio.kmmap import KmmapEngine
from repro.mmio.linux_mmap import LinuxMmapEngine
from repro.sim.executor import (
    HIT_INTERACTION_BOUND_CYCLES,
    MIN_SYNC_PREAMBLE_CYCLES,
    SYNC_HORIZON_CYCLES,
    Executor,
    SimThread,
)

ENGINE_CLASSES = [MmioEngine, LinuxMmapEngine, AquilaEngine, KmmapEngine,
                  ExplicitIOEngine]


class TestExecutorInequality:
    def test_run_ahead_fits_under_the_preamble_floor(self):
        assert (
            SYNC_HORIZON_CYCLES + HIT_INTERACTION_BOUND_CYCLES
            < MIN_SYNC_PREAMBLE_CYCLES
        )

    def test_hit_interaction_bound_covers_the_hit_path(self):
        # A hit op's interactions: the load/store itself plus a possible
        # TLB walk, under the worst modeled CPI factor (SMT, 1.4).
        worst_hit = 1.4 * (
            constants.LOAD_STORE_HIT_CYCLES + constants.TLB_MISS_WALK_CYCLES
        )
        assert worst_hit <= HIT_INTERACTION_BOUND_CYCLES

    def test_preamble_floor_is_the_cheapest_kernel_entry(self):
        # No engine reaches shared state for less than a syscall.
        assert MIN_SYNC_PREAMBLE_CYCLES <= constants.SYSCALL_CYCLES
        assert MIN_SYNC_PREAMBLE_CYCLES <= constants.TRAP_AQUILA_CYCLES
        assert MIN_SYNC_PREAMBLE_CYCLES <= constants.TRAP_RING3_CYCLES
        assert MIN_SYNC_PREAMBLE_CYCLES <= constants.VMCALL_CYCLES


class TestEnginePreambleDeclarations:
    def test_every_engine_declares_a_preamble_floor(self):
        for cls in ENGINE_CLASSES:
            assert hasattr(cls, "sync_preamble_cycles"), cls.__name__

    def test_every_declared_floor_meets_the_executor_requirement(self):
        for cls in ENGINE_CLASSES:
            assert cls.sync_preamble_cycles >= MIN_SYNC_PREAMBLE_CYCLES, (
                f"{cls.__name__} declares sync_preamble_cycles="
                f"{cls.sync_preamble_cycles} < {MIN_SYNC_PREAMBLE_CYCLES}: "
                "run-ahead batching would no longer be bit-exact"
            )

    def test_aquila_msync_floor_matches_its_charges(self):
        # Aquila's msync entry (100) alone is below the floor; the dirty
        # tree scan charge is what lifts it over.  Keep them in sync.
        assert AquilaEngine.sync_preamble_cycles == (
            100 + constants.AQUILA_MSYNC_SCAN_CYCLES
        )
        assert AquilaEngine.sync_preamble_cycles >= MIN_SYNC_PREAMBLE_CYCLES


class TestExecutorBatchedMode:
    def test_horizon_published_and_cleared(self):
        seen = []

        def workload(thread):
            for _ in range(3):
                seen.append(thread.run_horizon)
                thread.clock.charge("x", 10)
                yield

        executor = Executor(batched=True)
        thread = SimThread(core=0, tid=0)
        executor.add(thread, workload(thread))
        executor.run()
        # Solo thread: infinite horizon while running, cleared after.
        assert seen and all(math.isinf(h) for h in seen)
        assert thread.run_horizon is None

    def test_unbatched_mode_publishes_no_horizon(self):
        seen = []

        def workload(thread):
            for _ in range(2):
                seen.append(thread.run_horizon)
                thread.clock.charge("x", 10)
                yield

        executor = Executor()
        thread = SimThread(core=0, tid=0)
        executor.add(thread, workload(thread))
        executor.run()
        assert seen == [None, None]

    def test_core_sharing_zeroes_the_quantum(self):
        horizons = []

        def workload(thread):
            for _ in range(2):
                horizons.append((thread.name, thread.run_horizon))
                thread.clock.charge("x", 100)
                yield

        executor = Executor(batched=True)
        threads = [SimThread(0, tid=0), SimThread(0, tid=1)]  # same hw thread
        for t in threads:
            executor.add(t, workload(t))
        executor.run()
        # With a shared core the quantum is zero: every published finite
        # horizon equals the heap-top clock exactly (top + 0).  The two
        # threads alternate in 100-cycle steps, so the horizons are the
        # peer's clock at each pop.
        finite = [h for _, h in horizons if h is not None and not math.isinf(h)]
        assert finite == [0.0, 100.0, 100.0, 200.0]

    def test_min_run_continuation_matches_unbatched_schedule(self):
        def make(events, label):
            def workload(thread):
                for i in range(4):
                    events.append((label, i, thread.clock.now))
                    thread.clock.charge("x", 50 if label == "a" else 70)
                    yield

            return workload

        events_u, events_b = [], []
        for events, batched in ((events_u, False), (events_b, True)):
            executor = Executor(batched=batched)
            ta, tb = SimThread(0, tid=0), SimThread(1, tid=1)
            executor.add(ta, make(events, "a")(ta))
            executor.add(tb, make(events, "b")(tb))
            executor.run()
        assert events_u == events_b
