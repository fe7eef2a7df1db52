"""Radix tree keyed by page/frame index.

Two users, following the paper:

* **Aquila's VMA store** (Section 3.4): "Aquila uses a radix tree, similar
  to RadixVM, instead of a balanced tree to avoid contention and provide
  scalable manipulation and access of virtual address ranges."  Page faults
  use it to (1) validate the faulting address and (2) lock the individual
  entry — so concurrency is per-entry, not per-tree.
* **Linux's page cache** (Section 6.5): the kernel stores cached pages in a
  radix tree; the scalability difference is that Linux guards the whole
  tree with a single lock (modeled in the kernel-cache module, not here).

The tree maps a non-negative integer key to a value through fixed-fanout
internal nodes (64-way, 6 bits/level, like Linux's).  Range fill/clear
let VMA code mark whole mappings.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

RADIX_BITS = 6
RADIX_FANOUT = 1 << RADIX_BITS   # 64, like the Linux kernel's radix tree
_SLOT_MASK = RADIX_FANOUT - 1


class _RadixNode:
    __slots__ = ("slots", "count")

    def __init__(self) -> None:
        self.slots: List[Optional[Any]] = [None] * RADIX_FANOUT
        self.count = 0


class RadixTree:
    """64-way radix tree from int keys to values (None values disallowed)."""

    def __init__(self) -> None:
        self._root: Optional[_RadixNode] = None
        self._height = 0      # levels below the root
        self._shifts = ()     # key shift per level below the root, top first
        self._max_key = -1    # largest key the tree can hold now (-1: no root)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def _extend(self, key: int) -> None:
        if self._root is None:
            self._root = _RadixNode()
            self._height = 0
            self._max_key = RADIX_FANOUT - 1
        while key > self._max_key:
            new_root = _RadixNode()
            new_root.slots[0] = self._root
            new_root.count = 1
            self._root = new_root
            self._height += 1
            self._max_key = (1 << (RADIX_BITS * (self._height + 1))) - 1
        self._shifts = tuple(
            RADIX_BITS * level for level in range(self._height, 0, -1)
        )

    def insert(self, key: int, value: Any) -> bool:
        """Insert or replace; returns True when the key was new."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        if value is None:
            raise ValueError("None values are not storable")
        if key > self._max_key:
            self._extend(key)
        node = self._root
        for shift in self._shifts:
            index = (key >> shift) & _SLOT_MASK
            child = node.slots[index]
            if child is None:
                child = _RadixNode()
                node.slots[index] = child
                node.count += 1
            node = child
        index = key & _SLOT_MASK
        fresh = node.slots[index] is None
        if fresh:
            node.count += 1
            self._size += 1
        node.slots[index] = value
        return fresh

    def get(self, key: int) -> Optional[Any]:
        """Value under ``key`` or None."""
        if key < 0 or key > self._max_key:
            return None
        node = self._root
        for shift in self._shifts:
            node = node.slots[(key >> shift) & _SLOT_MASK]
            if node is None:
                return None
        return node.slots[key & _SLOT_MASK]

    def remove(self, key: int) -> Optional[Any]:
        """Delete ``key``; returns the removed value or None."""
        if key < 0 or key > self._max_key:
            return None
        path: List[Tuple[_RadixNode, int]] = []
        node = self._root
        for shift in self._shifts:
            index = (key >> shift) & _SLOT_MASK
            child = node.slots[index]
            if child is None:
                return None
            path.append((node, index))
            node = child
        index = key & _SLOT_MASK
        value = node.slots[index]
        if value is None:
            return None
        node.slots[index] = None
        node.count -= 1
        self._size -= 1
        # Prune empty internal nodes bottom-up.
        while path and node.count == 0:
            parent, parent_index = path.pop()
            parent.slots[parent_index] = None
            parent.count -= 1
            node = parent
        return value
