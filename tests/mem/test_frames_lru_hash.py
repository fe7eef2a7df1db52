"""Frame pool, approximate LRU, and the lock-free hash table model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import units
from repro.common.errors import OutOfMemoryError
from repro.mem.frames import FramePool
from repro.mem.hashtable import LockFreeHashTable
from repro.mem.lru import ApproxLRU
from repro.sim.clock import CycleClock


class TestFramePool:
    def test_numa_striping(self):
        pool = FramePool(100, numa_nodes=2)
        assert pool.node_of(0) == 0
        assert pool.node_of(99) == 1
        nodes = [pool.node_of(f) for f in range(100)]
        assert nodes.count(0) == nodes.count(1) == 50

    def test_data_roundtrip(self):
        pool = FramePool(10)
        data = bytes(range(256)) * 16
        pool.write(3, data)
        assert pool.read(3) == data
        assert pool.read(4) == bytes(4096)

    def test_partial_io(self):
        pool = FramePool(10)
        pool.write_partial(0, 100, b"abc")
        assert pool.read_partial(0, 100, 3) == b"abc"
        assert pool.read_partial(0, 99, 1) == b"\x00"
        with pytest.raises(ValueError):
            pool.write_partial(0, 4095, b"toolong")

    def test_free_scrubs(self):
        pool = FramePool(10)
        pool.mark_allocated(0)
        pool.write(0, b"\xFF" * 4096)
        pool.mark_free(0)
        assert pool.read(0) == bytes(4096)

    def test_free_many_scrubs(self):
        pool = FramePool(10)
        for frame in (2, 3, 4):
            pool.mark_allocated(frame)
            pool.write(frame, b"\xFF" * 4096)
        pool.mark_free_many([2, 4])
        assert pool.allocated_count() == 1 and pool.is_allocated(3)
        assert pool.read(2) == pool.read(4) == bytes(4096)
        with pytest.raises(OutOfMemoryError):
            pool.mark_free_many([10])

    def test_allocated_accounting(self):
        pool = FramePool(10)
        pool.mark_allocated(1)
        pool.mark_allocated(2)
        assert pool.allocated_count() == 2
        pool.mark_free(1)
        assert pool.allocated_count() == 1

    def test_out_of_range(self):
        pool = FramePool(10)
        with pytest.raises(OutOfMemoryError):
            pool.read(10)


class TestApproxLRU:
    def test_touch_orders(self):
        lru = ApproxLRU()
        for key in "abc":
            lru.touch(key)
        lru.touch("a")   # refresh
        assert list(lru.cold_keys()) == ["b", "c", "a"]

    def test_remove(self):
        lru = ApproxLRU()
        lru.touch("x")
        assert lru.remove("x")
        assert not lru.remove("x")
        assert len(lru) == 0

    def test_contains(self):
        lru = ApproxLRU()
        lru.touch(5)
        assert 5 in lru
        assert 6 not in lru

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=60))
    def test_eviction_order_is_staleness_order(self, touches):
        lru = ApproxLRU()
        last_touch = {}
        for i, key in enumerate(touches):
            lru.touch(key)
            last_touch[key] = i
        order = list(lru.cold_keys())
        staleness = [last_touch[k] for k in order]
        assert staleness == sorted(staleness)


class TestLockFreeHashTable:
    def test_insert_lookup_remove(self):
        table = LockFreeHashTable()
        clock = CycleClock()
        assert table.insert(clock, "k", "v")
        assert table.lookup(clock, "k") == "v"
        assert table.remove(clock, "k") == "v"
        assert table.lookup(clock, "k") is None

    def test_insert_race_semantics(self):
        """Second insert of the same key fails (CAS loses)."""
        table = LockFreeHashTable()
        clock = CycleClock()
        assert table.insert(clock, "k", "first")
        assert not table.insert(clock, "k", "second")
        assert table.lookup(clock, "k") == "first"

    def test_costs_charged(self):
        table = LockFreeHashTable()
        clock = CycleClock()
        table.lookup(clock, "missing")
        assert clock.now > 0

    def test_counters(self):
        table = LockFreeHashTable()
        clock = CycleClock()
        table.insert(clock, 1, "a")
        table.lookup(clock, 1)
        table.remove(clock, 1)
        assert table.inserts == 1
        assert table.lookups == 1
        assert table.removes == 1
        assert len(table) == 0

    def test_get_nocost_free(self):
        table = LockFreeHashTable()
        clock = CycleClock()
        table.insert(clock, 1, "a")
        before = clock.now
        assert table.get_nocost(1) == "a"
        assert clock.now == before
