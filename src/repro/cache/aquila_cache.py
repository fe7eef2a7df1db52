"""Aquila's DRAM I/O cache (paper Section 3.2, Figure 4).

Components, each mirroring the paper:

* **lock-free hash table** of resident pages — fast fault-path lookups
  with no shared lock;
* **two-level freelist** (per-core queues over per-NUMA queues) with
  batched movement;
* **approximate LRU** updated on page faults only (hits are invisible to
  software);
* **per-core red-black trees of dirty pages**, sorted by device offset, so
  writeback can merge adjacent pages into large I/Os;
* **batch eviction**: when the freelist runs dry the faulting thread
  synchronously evicts a batch (512 pages in the paper's config).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common import constants
from repro.mem.frames import FramePool
from repro.mem.freelist import TwoLevelFreelist
from repro.mem.hashtable import LockFreeHashTable
from repro.mem.lru import ApproxLRU
from repro.mem.rbtree import RBTree
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # break the cache <-> mmio import cycle
    from repro.mmio.files import BackingFile
from repro.cache.base import CachePage
from repro.obs import METRICS
from repro.sim.clock import CycleClock


class AquilaCache:
    """Scalable DRAM cache for the Aquila mmio engine."""

    def __init__(
        self,
        capacity_pages: int,
        num_cores: int,
        core_of_numa_node,
        eviction_batch: int = constants.EVICTION_BATCH_PAGES,
        freelist_move_batch: int = constants.FREELIST_MOVE_BATCH_PAGES,
        freelist_core_threshold: int = constants.FREELIST_CORE_THRESHOLD_PAGES,
    ) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_pages = capacity_pages
        self.num_cores = num_cores
        self.eviction_batch = eviction_batch
        self.pool = FramePool(capacity_pages, numa_nodes=2)
        self.freelist = TwoLevelFreelist(
            self.pool,
            num_cores,
            core_of_numa_node,
            move_batch=freelist_move_batch,
            core_threshold=freelist_core_threshold,
        )
        self.table = LockFreeHashTable(name="aquila.pages")
        self.lru = ApproxLRU()
        #: Optional per-tenant QoS partition (``repro.cache.partition``);
        #: when installed, victim selection prefers over-quota tenants.
        self.partition = None
        self._dirty_trees: List[RBTree] = [RBTree() for _ in range(num_cores)]
        self._pages: Dict[Tuple[int, int], CachePage] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        METRICS.bind_object(
            "cache.aquila",
            self,
            {
                "hits": "hits",
                "misses": "misses",
                "evictions": "evictions",
                "resident_pages": lambda c: c.resident_pages(),
                "dirty_pages": lambda c: c.dirty_count(),
            },
        )

    def resident_pages(self) -> int:
        """Pages currently cached."""
        return len(self._pages)

    def dirty_count(self) -> int:
        """Dirty pages across all per-core trees."""
        return sum(len(tree) for tree in self._dirty_trees)

    # -- fault-path operations ------------------------------------------------

    def lookup(self, clock: CycleClock, file: "BackingFile", file_page: int) -> Optional[CachePage]:
        """Lock-free hash probe; LRU refreshed on fault-path lookups."""
        page = self.table.lookup(clock, (file.file_id, file_page))
        if page is not None:
            self.hits += 1
            self.lru.touch(page.key)
            clock.charge("fault.lru", constants.AQUILA_LRU_UPDATE_CYCLES)
        else:
            self.misses += 1
        return page

    def allocate_frame(self, clock: CycleClock, core: int) -> Optional[int]:
        """Pop a frame via the two-level freelist; None means evict first."""
        return self.freelist.allocate(clock, core)

    def insert(
        self,
        clock: CycleClock,
        file: "BackingFile",
        file_page: int,
        frame: int,
    ) -> CachePage:
        """CAS-install a freshly read page."""
        page = CachePage(file, file_page, frame)
        if not self.table.insert(clock, page.key, page):
            # Lost the race: another thread faulted the page in first.
            # Return the winner; the caller frees its speculative frame.
            existing = self.table.get_nocost(page.key)
            if existing is not None:
                return existing
        self._pages[page.key] = page
        self.lru.touch(page.key)
        clock.charge("fault.lru", constants.AQUILA_LRU_UPDATE_CYCLES)
        return page

    def mark_dirty(self, clock: CycleClock, core: int, page: CachePage) -> None:
        """Track a dirty page in ``core``'s red-black tree, by device offset."""
        if page.dirty:
            return
        page.dirty = True
        page.owner_core = core
        self._dirty_trees[core].insert(page.device_offset, page)
        clock.charge("fault.dirty_track", constants.RBTREE_OP_CYCLES)

    def clear_dirty(self, clock: CycleClock, page: CachePage) -> None:
        """Remove a written-back page from its dirty tree."""
        if not page.dirty:
            return
        page.dirty = False
        if page.owner_core is not None:
            self._dirty_trees[page.owner_core].remove(page.device_offset)
            page.owner_core = None
        clock.charge("writeback.dirty_untrack", constants.RBTREE_OP_CYCLES)

    # -- eviction -------------------------------------------------------------

    def pick_victims(self, clock: CycleClock, count: int) -> List[CachePage]:
        """Choose up to ``count`` cold pages (approximate LRU order).

        With a QoS ``partition`` installed, candidates are reordered so
        over-quota tenants' pages come first (still LRU order within each
        preference class); the per-victim selection charge is unchanged.
        """
        keys = self.lru.cold_keys()
        if self.partition is not None:
            keys = self.partition.victim_order(keys, self._pages)
        victims: List[CachePage] = []
        for key in keys:
            page = self._pages.get(key)
            if page is not None:
                victims.append(page)
                clock.charge("evict.select", constants.LRU_VICTIM_SELECT_CYCLES)
                if len(victims) >= count:
                    break
        return victims

    def remove(self, clock: CycleClock, core: int, page: CachePage) -> None:
        """Drop an (already clean) page and recycle its frame."""
        self.remove_many(clock, core, [page])

    def remove_many(self, clock: CycleClock, core: int, pages: List[CachePage]) -> None:
        """Drop (already clean) pages and recycle their frames, in order.

        Per page: the hash-table CAS remove, then the freelist free —
        the charge order of ``remove`` called once per page.
        """
        table = self.table
        freelist = self.freelist
        resident = self._pages
        keys = []
        for page in pages:
            key = page.key
            keys.append(key)
            table.remove(clock, key)
            resident.pop(key, None)
            freelist.free(clock, core, page.frame)
        self.lru.remove_batch(keys)
        self.evictions += len(pages)

    def dirty_pages_sorted(self, core: int) -> List[CachePage]:
        """Dirty pages of one core's tree in device-offset order.

        The sorted order is what allows merging adjacent pages into large
        writeback I/Os (paper Section 3.2).
        """
        return [page for _, page in self._dirty_trees[core].items()]

    def all_dirty_pages_sorted(self) -> List[CachePage]:
        """Dirty pages of all cores merged in device-offset order."""
        merged: List[Tuple[int, CachePage]] = []
        for tree in self._dirty_trees:
            merged.extend(tree.items())
        merged.sort(key=lambda item: item[0])
        return [page for _, page in merged]


    def pages_of_file(self, file_id: int) -> List[CachePage]:
        """All resident pages belonging to ``file_id`` (file deletion)."""
        return [page for key, page in self._pages.items() if key[0] == file_id]

    def get_nocost(self, file: "BackingFile", file_page: int) -> Optional[CachePage]:
        """Cost-free peek for tests."""
        return self._pages.get((file.file_id, file_page))

    # -- dynamic resizing (paper Section 3.5) -----------------------------------

    def grow(self, additional_pages: int) -> List[int]:
        """Add DRAM to the cache; returns the new frame ids."""
        frames = self.pool.grow(additional_pages)
        self.freelist.add_frames(frames)
        self.capacity_pages += additional_pages
        return frames

    def shrink_free(self, count: int) -> List[int]:
        """Retire up to ``count`` *free* frames (caller evicts first if
        the freelist cannot cover the request); returns retired frames."""
        frames = self.freelist.take_free_frames(count)
        self.pool.shrink_frames(frames)
        self.capacity_pages -= len(frames)
        return frames
