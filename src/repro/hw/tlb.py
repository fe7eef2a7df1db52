"""Per-core TLB model.

The TLB caches virtual-page -> PTE translations.  Functionally it matters
for two reasons in this reproduction:

* Modifying or removing a mapping requires invalidating the entry on every
  core whose TLB may hold it (shootdown, paper Section 4.1).
* Aquila flushes TLBs more often than Linux explicit I/O, which is why
  RocksDB's ``get`` costs rise from 15.3 K to 18.5 K cycles (Figure 7) —
  the extra misses are charged by :meth:`TLB.access`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Set

import numpy as np

from repro.common import constants
from repro.sim.clock import CycleClock


#: Window vpns :meth:`TLB.access_window` converts to Python ints at a
#: time when it replays the LRU access by access.
REPLAY_CHUNK = 1 << 13


class TLB:
    """One core's TLB: an LRU set of cached virtual-page numbers."""

    def __init__(self, capacity: int = 1536) -> None:
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        entries: "OrderedDict[int, None]" = OrderedDict()
        self._entries = entries
        #: Live read-only view of the cached vpns: ``vpn in tlb.resident``
        #: tests membership at C speed, with no cost and no LRU touch.
        self.resident = entries.keys()
        #: ``touch(vpn)``: make a cached ``vpn`` most recently used, at C
        #: speed and no cost.  The hit loop pairs it with ``resident``
        #: per access and :meth:`fill` per walk.
        self.touch = entries.move_to_end
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.flushes = 0

    def access(self, vpn: int, clock: CycleClock) -> bool:
        """Translate ``vpn``; charge a page walk on a miss.  Returns hit."""
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
            self.hits += 1
            return True
        self.misses += 1
        clock.charge("tlb.miss_walk", constants.TLB_MISS_WALK_CYCLES)
        self.fill(vpn)
        return False

    def fill(self, vpn: int) -> None:
        """Cache ``vpn`` as most recently used, evicting the LRU entry if full.

        No cost: a fault handler's PTE install leaves the translation in
        the TLB as a side effect.
        """
        self._entries[vpn] = None
        self._entries.move_to_end(vpn)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def access_window(self, vpns, distinct, firsts, lasts) -> np.ndarray:
        """Translate a window of accesses in order, uncharged; returns walks.

        ``vpns`` is the window (an int64 array); ``distinct`` holds its
        distinct vpns and ``firsts``/``lasts`` their first/last positions
        in it (aligned int64 arrays).  Hit/miss counters and the LRU
        order end exactly as ``len(vpns)`` calls of :meth:`access` would
        leave them; the caller charges the walks.  Returns the ascending
        window positions that missed (walked), as an int64 array.

        When every new vpn fits in the free slots nothing is evicted:
        the walks are the new vpns' first occurrences, and the recency
        tail is the touched vpns by last occurrence, so the cost is
        O(distinct vpns).  Otherwise the LRU is replayed access by
        access.
        """
        entries = self._entries
        new = [i for i, vpn in enumerate(distinct.tolist()) if vpn not in entries]
        if len(new) > self.capacity - len(entries):
            walked = self._replay(vpns)
        else:
            walked = np.sort(firsts[new])
            move_to_end = entries.move_to_end
            for vpn in distinct[lasts.argsort()].tolist():
                entries[vpn] = None
                move_to_end(vpn)
        self.misses += len(walked)
        self.hits += len(vpns) - len(walked)
        return walked

    def _replay(self, vpns) -> np.ndarray:
        """Step the LRU through ``vpns``; the positions that missed.

        The window is read :data:`REPLAY_CHUNK` vpns at a time, so its
        Python ints never exist all at once.
        """
        entries = self._entries
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        capacity = self.capacity
        size = len(entries)
        parts = []
        for base in range(0, len(vpns), REPLAY_CHUNK):
            walked: List[int] = []
            append = walked.append
            for pos, vpn in enumerate(vpns[base : base + REPLAY_CHUNK].tolist(), base):
                if vpn in entries:
                    move_to_end(vpn)
                else:
                    append(pos)
                    entries[vpn] = None
                    if size < capacity:
                        size += 1
                    else:
                        popitem(False)
            parts.append(np.array(walked, dtype=np.int64))
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def contains_any(self, vpns: Iterable[int]) -> bool:
        """Whether any vpn of a batch is cached (no cost, no LRU touch).

        Set-disjointness instead of a per-vpn probe loop: shootdown target
        selection scans every core's TLB against batches of up to 512 vpns.
        """
        return not self.resident.isdisjoint(vpns)

    def invalidate(self, vpn: int) -> None:
        """Drop one entry (functional part of INVLPG)."""
        if vpn in self._entries:
            del self._entries[vpn]
            self.invalidations += 1

    def invalidate_many(self, vpns: Iterable[int]) -> None:
        """Drop a batch of entries (batched shootdown receive side)."""
        entries = self._entries
        # The membership test runs in C; only cached vpns reach the body.
        for vpn in filter(entries.__contains__, vpns):
            del entries[vpn]
            self.invalidations += 1

    def flush(self) -> None:
        """Drop every entry (CR3 reload / full shootdown)."""
        self._entries.clear()
        self.flushes += 1

    def resident_vpns(self) -> Set[int]:
        """Snapshot of cached virtual-page numbers."""
        return set(self._entries)

    @property
    def miss_ratio(self) -> float:
        """Fraction of accesses that missed."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.misses / total
