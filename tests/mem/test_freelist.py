"""The two-level (core/NUMA) batched freelist."""

import pytest

from repro.hw.topology import Topology
from repro.mem.frames import FramePool
from repro.mem.freelist import TwoLevelFreelist
from repro.sim.clock import CycleClock


def _freelist(total=256, cores=4, move_batch=16, threshold=8):
    pool = FramePool(total, numa_nodes=2)
    topo = Topology(sockets=2, cores_per_socket=cores // 2, threads_per_core=1)
    return (
        TwoLevelFreelist(
            pool,
            cores,
            topo.numa_node_of,
            move_batch=move_batch,
            core_threshold=threshold,
        ),
        pool,
    )


class TestAllocation:
    def test_all_frames_initially_free(self):
        freelist, pool = _freelist(100)
        assert freelist.free_count() == 100

    def test_allocate_marks_allocated(self):
        freelist, pool = _freelist()
        clock = CycleClock()
        frame = freelist.allocate(clock, core=0)
        assert frame is not None
        assert pool.is_allocated(frame)
        assert freelist.free_count() == 255

    def test_refill_pulls_batch_to_core(self):
        freelist, _ = _freelist(move_batch=16)
        clock = CycleClock()
        freelist.allocate(clock, core=0)
        # One frame consumed, 15 remain parked on core 0's queue.
        assert freelist.core_queue_len(0) == 15
        assert freelist.batch_moves == 1

    def test_local_numa_preferred(self):
        freelist, pool = _freelist(total=256)
        clock = CycleClock()
        # Core 0 is NUMA node 0; frames 0..127 are node 0.
        frame = freelist.allocate(clock, core=0)
        assert pool.node_of(frame) == 0
        # A node-1 core pulls node-1 frames first.
        frame = freelist.allocate(clock, core=3)
        assert pool.node_of(frame) == 1

    def test_falls_back_to_remote_node(self):
        freelist, pool = _freelist(total=64, move_batch=64)
        clock = CycleClock()
        # Drain node 0 entirely from core 0.
        taken = [freelist.allocate(clock, 0) for _ in range(32)]
        assert all(pool.node_of(f) == 0 for f in taken)
        # Next allocation for core 0 must come from node 1.
        frame = freelist.allocate(clock, 0)
        assert pool.node_of(frame) == 1

    def test_exhaustion_returns_none(self):
        freelist, _ = _freelist(total=8, move_batch=8)
        clock = CycleClock()
        for _ in range(8):
            assert freelist.allocate(clock, 0) is not None
        assert freelist.allocate(clock, 0) is None


class TestFree:
    def test_free_goes_to_core_queue(self):
        freelist, _ = _freelist(threshold=64)   # high threshold: no spill
        clock = CycleClock()
        frame = freelist.allocate(clock, core=1)
        base = freelist.core_queue_len(1)
        freelist.free(clock, core=1, frame=frame)
        assert freelist.core_queue_len(1) == base + 1

    def test_spill_over_threshold(self):
        freelist, _ = _freelist(threshold=4, move_batch=4)
        clock = CycleClock()
        frames = [freelist.allocate(clock, 0) for _ in range(8)]
        node_before = freelist.node_queue_len(0)
        for frame in frames:
            freelist.free(clock, 0, frame)
        # The core queue spilled batches back to the NUMA queue.
        assert freelist.core_queue_len(0) <= 4 + 4
        assert freelist.node_queue_len(0) > node_before - 8

    def test_freed_frames_reusable_cross_core(self):
        freelist, _ = _freelist(total=8, move_batch=8, threshold=1)
        clock = CycleClock()
        frames = [freelist.allocate(clock, 0) for _ in range(8)]
        for frame in frames:
            freelist.free(clock, 0, frame)
        # Another core can now allocate (frames spilled to NUMA queues).
        assert freelist.allocate(clock, 2) is not None


class TestAccounting:
    def test_conservation(self):
        """allocated + free == total, always."""
        import random

        freelist, pool = _freelist(total=64, move_batch=8, threshold=4)
        clock = CycleClock()
        rng = random.Random(3)
        held = []
        for _ in range(500):
            if held and rng.random() < 0.5:
                core, frame = held.pop(rng.randrange(len(held)))
                freelist.free(clock, core, frame)
            else:
                core = rng.randrange(4)
                frame = freelist.allocate(clock, core)
                if frame is not None:
                    held.append((core, frame))
            assert freelist.free_count() + len(held) == 64
