"""The Linux kernel page cache model.

Structure follows the kernel (and the paper's profiling findings,
Section 6.5):

* per-file (per-inode) radix tree of cached pages, each guarded by a
  **single spinlock** ("a single lock protects the radix tree of cached
  pages, and, as a result, is highly contended");
* the same lock is needed to mark a page dirty ("this lock is also
  required to mark a page as dirty");
* one machine-wide LRU with a capacity limit (the cgroup bound the paper
  sets), reclaimed in the faulting thread's context (direct reclaim) when
  full.

Frames come from a simple free stack — the buddy allocator is not a
contention point at the paper's thread counts, the tree lock is.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common import constants
from repro.common.errors import OutOfMemoryError
from repro.mem.frames import FramePool
from repro.mem.lru import ApproxLRU
from repro.mem.radix import RadixTree
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # break the cache <-> mmio import cycle
    from repro.mmio.files import BackingFile
from repro.cache.base import CachePage
from repro.obs import METRICS
from repro.sim.clock import CycleClock
from repro.sim.locks import SpinlockTimeline


class _FileCache:
    """Per-inode radix tree + its tree_lock."""

    def __init__(self, file_id: int) -> None:
        self.tree = RadixTree()
        self.tree_lock = SpinlockTimeline(f"tree_lock[{file_id}]")


class KernelPageCache:
    """System-wide page cache with per-inode trees and a global LRU."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_pages = capacity_pages
        self.pool = FramePool(capacity_pages, numa_nodes=2)
        self._free: List[int] = list(range(capacity_pages - 1, -1, -1))
        self._files: Dict[int, _FileCache] = {}
        self.lru = ApproxLRU()
        #: Optional per-tenant QoS partition (``repro.cache.partition``);
        #: when installed, reclaim prefers over-quota tenants' pages.
        self.partition = None
        self._pages: Dict[Tuple[int, int], CachePage] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        METRICS.bind_object(
            "cache.kernel",
            self,
            {
                "hits": "hits",
                "misses": "misses",
                "evictions": "evictions",
                "resident_pages": lambda c: c.resident_pages(),
                "tree_lock.contended": lambda c: sum(
                    lock.contended_acquisitions for lock in c.tree_locks()
                ),
                "tree_lock.wait_cycles": lambda c: sum(
                    lock.total_wait_cycles for lock in c.tree_locks()
                ),
            },
        )

    def _file_cache(self, file: "BackingFile") -> _FileCache:
        cache = self._files.get(file.file_id)
        if cache is None:
            cache = _FileCache(file.file_id)
            self._files[file.file_id] = cache
        return cache

    def tree_lock_of(self, file: "BackingFile") -> SpinlockTimeline:
        """The per-inode tree lock (exposed for profiling in benchmarks)."""
        return self._file_cache(file).tree_lock

    def tree_locks(self) -> List[SpinlockTimeline]:
        """Every inode's tree lock, in first-use order (contention metrics)."""
        return [cache.tree_lock for cache in self._files.values()]

    def resident_pages(self) -> int:
        """Pages currently cached."""
        return len(self._pages)

    def dirty_pages(self) -> int:
        """Resident pages that are dirty."""
        return sum(1 for page in self._pages.values() if page.dirty)

    # -- lookup / insert, under the tree lock --------------------------------

    def lookup(
        self, clock: CycleClock, thread_id: int, file: "BackingFile", file_page: int
    ) -> Optional[CachePage]:
        """Radix-tree lookup under the inode's tree lock."""
        cache = self._files.get(file.file_id) or self._file_cache(file)
        lock = cache.tree_lock
        lock.acquire(clock, thread_id, "idle.lock.tree_lock")
        clock.charge("fault.pcache_lookup", constants.LINUX_PCACHE_LOOKUP_CYCLES)
        page = cache.tree.get(file_page)
        lock.release(clock, thread_id)
        if page is not None:
            self.hits += 1
            self.lru.touch(page.key)
        else:
            self.misses += 1
        return page

    def insert_window(
        self,
        clock: CycleClock,
        thread_id: int,
        file: "BackingFile",
        first: int,
        last: int,
        reclaim: Callable[[], None],
        locked: Set[Tuple[int, int]],
    ) -> List[CachePage]:
        """Allocate and insert every uncached page of ``file`` in ``[first, last)``.

        Per page, in the fault handler's order: take a free frame
        (charging the allocation; when none is free, call ``reclaim()``
        once and charge a second attempt), insert the page under the
        inode's tree lock, then touch it in the LRU.  Each new page's key
        goes into ``locked`` (PG_locked) as soon as it is inserted, so a
        reclaim run for a later page of the window skips it.  Returns the
        new pages in file-page order; their frames are not filled yet.
        """
        pages = self._pages
        free = self._free
        pool = self.pool
        touch = self.lru.touch
        file_id = file.file_id
        cache = self._files.get(file_id) or self._file_cache(file)
        lock = cache.tree_lock
        tree = cache.tree
        fresh: List[CachePage] = []
        for file_page in range(first, last):
            if (file_id, file_page) in pages:
                continue
            clock.charge("fault.page_alloc", constants.LINUX_PAGE_ALLOC_CYCLES)
            if not free:
                reclaim()
                clock.charge("fault.page_alloc", constants.LINUX_PAGE_ALLOC_CYCLES)
                if not free:
                    raise OutOfMemoryError("reclaim failed to free any page")
            frame = free.pop()
            pool.mark_allocated(frame)
            lock.acquire(clock, thread_id, "idle.lock.tree_lock")
            clock.charge("fault.pcache_insert", constants.LINUX_PCACHE_INSERT_CYCLES)
            page = CachePage(file, file_page, frame)
            tree.insert(file_page, page)
            lock.release(clock, thread_id)
            key = page.key
            pages[key] = page
            touch(key)
            clock.charge("fault.lru", constants.LINUX_LRU_UPDATE_CYCLES)
            locked.add(key)
            fresh.append(page)
        return fresh

    def mark_dirty(self, clock: CycleClock, thread_id: int, page: CachePage) -> None:
        """Mark dirty — requires the tree lock (the Fig 10 write bottleneck)."""
        lock = self._files[page.key[0]].tree_lock
        lock.acquire(clock, thread_id, "idle.lock.tree_lock")
        clock.charge("fault.mark_dirty", constants.LINUX_TREE_LOCK_HOLD_CYCLES)
        page.dirty = True
        lock.release(clock, thread_id)

    def pick_victims(self, count: int) -> List[CachePage]:
        """Choose up to ``count`` cold pages for reclaim (LRU order).

        With a QoS ``partition`` installed, candidates are reordered so
        over-quota tenants' pages are reclaimed first (LRU order within
        each preference class).
        """
        keys = self.lru.cold_keys()
        if self.partition is not None:
            keys = self.partition.victim_order(keys, self._pages)
        pages = self._pages
        victims = []
        for key in keys:
            page = pages.get(key)
            if page is not None:
                victims.append(page)
                if len(victims) >= count:
                    break
        return victims

    def remove(self, clock: CycleClock, thread_id: int, page: CachePage) -> None:
        """Drop a page from the tree and return its frame to the free pool."""
        cache = self._files[page.key[0]]
        cache.tree_lock.acquire(clock, thread_id, "idle.lock.tree_lock")
        clock.charge("reclaim.remove", constants.LINUX_TREE_LOCK_HOLD_CYCLES)
        cache.tree.remove(page.file_page)
        cache.tree_lock.release(clock, thread_id)
        self._finish_remove([page])

    def remove_batch(
        self, clock: CycleClock, thread_id: int, pages: List[CachePage]
    ) -> List[CachePage]:
        """Drop many pages, taking each inode's tree lock once.

        Mirrors ``shrink_page_list``: reclaim processes victims grouped by
        mapping, *trylocks* each tree lock, and skips busy mappings rather
        than queueing behind their faulting threads.  Returns the pages
        actually removed.
        """
        by_file: Dict[int, List[CachePage]] = {}
        for page in pages:
            by_file.setdefault(page.key[0], []).append(page)
        removed: List[CachePage] = []
        for file_id, group in by_file.items():
            cache = self._files[file_id]
            lock = cache.tree_lock
            if not lock.try_acquire(clock, thread_id):
                continue
            clock.charge(
                "reclaim.remove",
                constants.LINUX_TREE_LOCK_HOLD_CYCLES + 60 * (len(group) - 1),
            )
            remove = cache.tree.remove
            for page in group:
                remove(page.file_page)
            lock.release(clock, thread_id)
            self._finish_remove(group)
            removed.extend(group)
        return removed

    def _finish_remove(self, pages: List[CachePage]) -> None:
        """Forget removed pages and recycle their frames, in order."""
        resident = self._pages
        keys = [page.key for page in pages]
        frames = [page.frame for page in pages]
        for key in keys:
            resident.pop(key, None)
        self.lru.remove_batch(keys)
        self.pool.mark_free_many(frames)
        self._free.extend(frames)
        self.evictions += len(pages)

    def pages_of_file(self, file_id: int) -> List[CachePage]:
        """All resident pages belonging to ``file_id`` (file deletion)."""
        return [page for key, page in self._pages.items() if key[0] == file_id]

    def get_nocost(self, file: "BackingFile", file_page: int) -> Optional[CachePage]:
        """Cost-free peek for tests."""
        return self._pages.get((file.file_id, file_page))

    def pages(self) -> List[CachePage]:
        """Snapshot of all resident pages (writeback scans)."""
        return list(self._pages.values())
