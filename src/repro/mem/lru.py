"""Approximate LRU eviction list (paper Section 3.2).

"We choose which pages to evict via an approximation of LRU.  Aquila
updates the LRU list based on page faults."  The key property: because
cache hits go straight through the hardware mapping, *accesses are
invisible* — recency information is refreshed only when a page faults in
(or is explicitly touched by the engine).  Eviction pops the coldest
entries in batches.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator, List, Optional


class ApproxLRU:
    """Insertion/touch-ordered list of cache keys; evicts from the front."""

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order

    def touch(self, key: Hashable) -> None:
        """Mark ``key`` most-recently-used (inserting it if absent)."""
        self._order[key] = None
        self._order.move_to_end(key)

    def remove(self, key: Hashable) -> bool:
        """Drop ``key`` from the list; True if it was present."""
        if key in self._order:
            del self._order[key]
            return True
        return False

    def remove_batch(self, keys) -> int:
        """Drop every key in ``keys``; returns how many were present.

        Equivalent to ``remove`` in a loop (removal order does not affect
        the recency order of the survivors) — one call for batch eviction.
        """
        order = self._order
        removed = 0
        for key in keys:
            if key in order:
                del order[key]
                removed += 1
        return removed

    def evict_batch(self, count: int) -> List[Hashable]:
        """Pop up to ``count`` coldest keys (paper batch: 512)."""
        victims: List[Hashable] = []
        while self._order and len(victims) < count:
            key, _ = self._order.popitem(last=False)
            victims.append(key)
        return victims

    def coldest(self) -> Optional[Hashable]:
        """Peek the coldest key without removing it."""
        if not self._order:
            return None
        return next(iter(self._order))

    def cold_keys(self) -> Iterator[Hashable]:
        """Iterate keys from coldest to hottest, without copying the list.

        A victim walk usually stops after a few keys.  The list must not
        change while the iterator is in use.
        """
        return iter(self._order)
