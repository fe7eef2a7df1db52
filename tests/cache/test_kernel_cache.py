"""The Linux kernel page-cache model."""

import pytest

from repro.common import units
from repro.common.errors import OutOfMemoryError
from repro.cache.kernel_cache import KernelPageCache
from repro.devices.pmem import PmemDevice
from repro.mmio.files import ExtentFile
from repro.sim.clock import CycleClock


def _file(name="f", pages=64, file_id=1):
    device = PmemDevice(capacity_bytes=64 * units.MIB)
    return ExtentFile(file_id, name, device, 0, pages * units.PAGE_SIZE)


def _no_reclaim():
    """A reclaim pass that frees nothing."""


def _insert(cache, clock, file, file_page):
    """Insert one page the way a fault does; returns the new page."""
    (page,) = cache.insert_window(
        clock, 1, file, file_page, file_page + 1, _no_reclaim, set()
    )
    return page


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = KernelPageCache(16)
        file = _file()
        clock = CycleClock()
        assert cache.lookup(clock, 1, file, 0) is None
        inserted = _insert(cache, clock, file, 0)
        page = cache.lookup(clock, 1, file, 0)
        assert page is inserted
        assert cache.hits == 1 and cache.misses == 1

    def test_per_file_isolation(self):
        cache = KernelPageCache(16)
        a, b = _file("a"), _file("b", file_id=2)
        clock = CycleClock()
        _insert(cache, clock, a, 0)
        assert cache.lookup(clock, 1, b, 0) is None

    def test_per_file_tree_locks_distinct(self):
        cache = KernelPageCache(16)
        a, b = _file("a"), _file("b", file_id=2)
        assert cache.tree_lock_of(a) is not cache.tree_lock_of(b)
        assert cache.tree_lock_of(a) is cache.tree_lock_of(a)

    def test_allocate_exhaustion(self):
        cache = KernelPageCache(2)
        file = _file()
        clock = CycleClock()
        _insert(cache, clock, file, 0)
        _insert(cache, clock, file, 1)
        with pytest.raises(OutOfMemoryError):
            _insert(cache, clock, file, 2)


class TestInsertWindow:
    def test_inserts_uncached_pages_in_order_and_pins_them(self):
        cache = KernelPageCache(16)
        file = _file()
        clock = CycleClock()
        cached = _insert(cache, clock, file, 5)
        locked = set()
        fresh = cache.insert_window(clock, 1, file, 3, 8, lambda: None, locked)
        assert [page.file_page for page in fresh] == [3, 4, 6, 7]
        assert locked == {page.key for page in fresh}
        assert all(cache.get_nocost(file, page.file_page) is page for page in fresh)
        assert cache.get_nocost(file, 5) is cached
        assert cache.tree_lock_of(file).acquisitions == 5
        assert list(cache.lru.cold_keys())[-4:] == [page.key for page in fresh]

    def test_reclaims_once_per_page_then_gives_up(self):
        cache = KernelPageCache(2)
        file = _file()
        clock = CycleClock()
        calls = []

        def reclaim():
            calls.append(clock.now)
            victim = cache.pick_victims(1)[0]
            cache.remove(clock, 1, victim)

        fresh = cache.insert_window(clock, 1, file, 0, 3, reclaim, set())
        assert [page.file_page for page in fresh] == [0, 1, 2]
        assert len(calls) == 1 and cache.get_nocost(file, 0) is None
        with pytest.raises(OutOfMemoryError):
            cache.insert_window(clock, 1, file, 10, 11, lambda: None, set())


class TestDirtyAndVictims:
    def test_mark_dirty_takes_lock(self):
        cache = KernelPageCache(8)
        file = _file()
        clock = CycleClock()
        page = _insert(cache, clock, file, 0)
        lock = cache.tree_lock_of(file)
        acquisitions = lock.acquisitions
        cache.mark_dirty(clock, 1, page)
        assert page.dirty
        assert lock.acquisitions == acquisitions + 1
        assert cache.dirty_pages() == 1

    def test_pick_victims_lru_order(self):
        cache = KernelPageCache(8)
        file = _file()
        clock = CycleClock()
        pages = [
            _insert(cache, clock, file, i)
            for i in range(4)
        ]
        cache.lookup(clock, 1, file, 0)   # refresh page 0
        victims = cache.pick_victims(2)
        assert [v.file_page for v in victims] == [1, 2]

    def test_remove_returns_frame(self):
        cache = KernelPageCache(2)
        file = _file()
        clock = CycleClock()
        page = _insert(cache, clock, file, 0)
        _insert(cache, clock, file, 1)
        with pytest.raises(OutOfMemoryError):
            _insert(cache, clock, file, 2)
        cache.remove(clock, 1, page)
        assert _insert(cache, clock, file, 2).frame == page.frame
        assert cache.evictions == 1

    def test_remove_batch_groups_by_file(self):
        cache = KernelPageCache(16)
        a, b = _file("a"), _file("b", file_id=2)
        clock = CycleClock()
        pages = []
        for i in range(3):
            pages.append(_insert(cache, clock, a, i))
            pages.append(_insert(cache, clock, b, i))
        lock_a = cache.tree_lock_of(a)
        before = lock_a.acquisitions
        removed = cache.remove_batch(clock, 1, pages)
        assert len(removed) == 6
        assert lock_a.acquisitions == before + 1   # one acquisition per file

    def test_remove_batch_skips_busy_files(self):
        cache = KernelPageCache(16)
        file = _file()
        clock = CycleClock()
        page = _insert(cache, clock, file, 0)
        # Simulate the lock being held into the future.
        holder = CycleClock()
        holder.charge("hold", 10_000)
        lock = cache.tree_lock_of(file)
        lock.acquire(holder, 99)
        removed = cache.remove_batch(clock, 1, [page])
        assert removed == []
        assert cache.get_nocost(file, 0) is page
        lock.release(holder, 99)

    def test_pages_of_file(self):
        cache = KernelPageCache(16)
        a, b = _file("a"), _file("b", file_id=2)
        clock = CycleClock()
        _insert(cache, clock, a, 0)
        _insert(cache, clock, a, 1)
        _insert(cache, clock, b, 0)
        assert len(cache.pages_of_file(a.file_id)) == 2
        assert len(cache.pages_of_file(b.file_id)) == 1
