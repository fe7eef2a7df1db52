"""Aquila's DRAM cache: hash, freelist, dirty trees, eviction, resize."""

import pytest

from repro.common import units
from repro.cache.aquila_cache import AquilaCache
from repro.devices.pmem import PmemDevice
from repro.hw.topology import Topology
from repro.mmio.files import ExtentFile
from repro.sim.clock import CycleClock


def _cache(capacity=64, **kwargs):
    topo = Topology()
    return AquilaCache(
        capacity,
        num_cores=topo.num_hw_threads,
        core_of_numa_node=topo.numa_node_of,
        **kwargs,
    )


def _file(name="f", pages=256):
    device = PmemDevice(capacity_bytes=64 * units.MIB)
    return ExtentFile(1, name, device, 0, pages * units.PAGE_SIZE)


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = _cache()
        file = _file()
        clock = CycleClock()
        assert cache.lookup(clock, file, 0) is None
        frame = cache.allocate_frame(clock, core=0)
        page = cache.insert(clock, file, 0, frame)
        assert cache.lookup(clock, file, 0) is page
        assert cache.hits == 1 and cache.misses == 1

    def test_insert_race_returns_winner(self):
        cache = _cache()
        file = _file()
        clock = CycleClock()
        f1 = cache.allocate_frame(clock, 0)
        first = cache.insert(clock, file, 0, f1)
        f2 = cache.allocate_frame(clock, 0)
        second = cache.insert(clock, file, 0, f2)
        assert second is first

    def test_resident_count(self):
        cache = _cache()
        file = _file()
        clock = CycleClock()
        for i in range(5):
            cache.insert(clock, file, i, cache.allocate_frame(clock, 0))
        assert cache.resident_pages() == 5


class TestDirtyTrees:
    def test_mark_and_clear(self):
        cache = _cache()
        file = _file()
        clock = CycleClock()
        page = cache.insert(clock, file, 3, cache.allocate_frame(clock, 0))
        cache.mark_dirty(clock, core=2, page=page)
        assert page.dirty and page.owner_core == 2
        assert cache.dirty_count() == 1
        cache.clear_dirty(clock, page)
        assert not page.dirty and page.owner_core is None
        assert cache.dirty_count() == 0

    def test_mark_dirty_idempotent(self):
        cache = _cache()
        file = _file()
        clock = CycleClock()
        page = cache.insert(clock, file, 0, cache.allocate_frame(clock, 0))
        cache.mark_dirty(clock, 1, page)
        cache.mark_dirty(clock, 5, page)   # second mark keeps the owner
        assert page.owner_core == 1
        assert cache.dirty_count() == 1

    def test_per_core_sorted_by_device_offset(self):
        """The property writeback merging relies on (Section 3.2)."""
        cache = _cache()
        file = _file()
        clock = CycleClock()
        for file_page in (9, 2, 5):
            page = cache.insert(clock, file, file_page, cache.allocate_frame(clock, 0))
            cache.mark_dirty(clock, core=0, page=page)
        sorted_pages = cache.dirty_pages_sorted(0)
        offsets = [p.device_offset for p in sorted_pages]
        assert offsets == sorted(offsets)

    def test_all_dirty_merged_sorted(self):
        cache = _cache()
        file = _file()
        clock = CycleClock()
        for core, file_page in [(0, 8), (1, 1), (0, 3), (1, 6)]:
            page = cache.insert(clock, file, file_page, cache.allocate_frame(clock, 0))
            cache.mark_dirty(clock, core=core, page=page)
        offsets = [p.device_offset for p in cache.all_dirty_pages_sorted()]
        assert offsets == sorted(offsets)


class TestEviction:
    def test_pick_victims_cold_first(self):
        cache = _cache()
        file = _file()
        clock = CycleClock()
        for i in range(4):
            cache.insert(clock, file, i, cache.allocate_frame(clock, 0))
        cache.lookup(clock, file, 0)   # refresh 0
        victims = cache.pick_victims(clock, 2)
        assert [v.file_page for v in victims] == [1, 2]

    def test_remove_recycles_frame(self):
        cache = _cache(capacity=4, freelist_move_batch=4, freelist_core_threshold=2)
        file = _file()
        clock = CycleClock()
        pages = [
            cache.insert(clock, file, i, cache.allocate_frame(clock, 0))
            for i in range(4)
        ]
        assert cache.allocate_frame(clock, 0) is None
        cache.remove(clock, 0, pages[0])
        assert cache.allocate_frame(clock, 0) is not None
        assert cache.evictions == 1
