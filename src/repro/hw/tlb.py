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

from repro.common import constants
from repro.sim.clock import CycleClock


class TLB:
    """One core's TLB: an LRU set of cached virtual-page numbers."""

    def __init__(self, capacity: int = 1536) -> None:
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, None]" = OrderedDict()
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

    def access_window(self, vpns, distinct, firsts, lasts) -> List[int]:
        """Translate a window of accesses in order, uncharged; returns walks.

        ``vpns`` is the window (an int64 array); ``distinct`` holds its
        distinct vpns and ``firsts``/``lasts`` their first/last positions
        in it (aligned int64 arrays).  Hit/miss counters and the LRU
        order end exactly as ``len(vpns)`` calls of :meth:`access` would
        leave them; the caller charges the walks.  Returns the ascending
        window positions that missed (walked).

        When every new vpn fits in the free slots nothing is evicted:
        the walks are the new vpns' first occurrences, and the recency
        tail is the touched vpns by last occurrence, so the cost is
        O(distinct vpns).  Otherwise the LRU is replayed access by
        access.
        """
        entries = self._entries
        new = [i for i, vpn in enumerate(distinct.tolist()) if vpn not in entries]
        if len(new) > self.capacity - len(entries):
            walked = self._replay(vpns.tolist())
        else:
            walked = sorted(firsts[new].tolist())
            move_to_end = entries.move_to_end
            for vpn in distinct[lasts.argsort()].tolist():
                entries[vpn] = None
                move_to_end(vpn)
        self.misses += len(walked)
        self.hits += len(vpns) - len(walked)
        return walked

    def _replay(self, vpns: List[int]) -> List[int]:
        """Step the LRU through ``vpns``; the positions that missed."""
        entries = self._entries
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        capacity = self.capacity
        size = len(entries)
        walked: List[int] = []
        append = walked.append
        for pos, vpn in enumerate(vpns):
            if vpn in entries:
                move_to_end(vpn)
            else:
                append(pos)
                entries[vpn] = None
                if size < capacity:
                    size += 1
                else:
                    popitem(False)
        return walked

    def contains(self, vpn: int) -> bool:
        """Whether the TLB currently caches ``vpn`` (no cost, no LRU touch)."""
        return vpn in self._entries

    def contains_any(self, vpns: Iterable[int]) -> bool:
        """Whether any vpn of a batch is cached (no cost, no LRU touch).

        Set-disjointness instead of a per-vpn probe loop: shootdown target
        selection scans every core's TLB against batches of up to 512 vpns.
        """
        return not self._entries.keys().isdisjoint(vpns)

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
