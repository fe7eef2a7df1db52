"""Sorted int-keyed map: the host container behind the simulated trees.

Aquila keeps dirty pages in **per-core red-black trees** so that writeback
can emit pages sorted by device offset and merge adjacent pages into large
I/Os (paper Section 3.2), and Linux keeps VMAs in an rb-tree.  The
simulator models each tree operation with a fixed charge
(``RBTREE_OP_CYCLES``, ``LINUX_VMA_LOOKUP_CYCLES``) whatever the tree's
shape, so the host side only has to keep its keys sorted.

A sorted key list plus a dict does that with no node objects, hence no
reference cycles: a finished stack is freed by reference counting alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Dict, Iterator, List, Optional, Tuple


class SortedMap:
    """Int-keyed map with ordered iteration and floor lookup."""

    __slots__ = ("_keys", "_values")

    def __init__(self) -> None:
        self._keys: List[int] = []
        self._values: Dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: int) -> bool:
        return key in self._values

    def __bool__(self) -> bool:
        return bool(self._values)

    def get(self, key: int, default: Any = None) -> Any:
        """Value stored under ``key`` or ``default``."""
        return self._values.get(key, default)

    def insert(self, key: int, value: Any = None) -> bool:
        """Insert or update ``key``; returns True if the key was new."""
        new = key not in self._values
        if new:
            insort(self._keys, key)
        self._values[key] = value
        return new

    def remove(self, key: int) -> bool:
        """Delete ``key``; returns True if it was present."""
        if key not in self._values:
            return False
        del self._values[key]
        del self._keys[bisect_left(self._keys, key)]
        return True

    def floor(self, key: int) -> Optional[Tuple[int, Any]]:
        """Largest (key, value) with key <= ``key``, or None."""
        slot = bisect_right(self._keys, key)
        if not slot:
            return None
        found = self._keys[slot - 1]
        return (found, self._values[found])

    def items(self) -> Iterator[Tuple[int, Any]]:
        """(key, value) pairs in key order."""
        values = self._values
        for key in self._keys:
            yield (key, values[key])
