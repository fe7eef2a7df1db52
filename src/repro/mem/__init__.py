"""Memory-management data structures: frames, freelists, LRU, trees, sorted map."""

from repro.mem.frames import FramePool
from repro.mem.freelist import TwoLevelFreelist
from repro.mem.hashtable import LockFreeHashTable
from repro.mem.lru import ApproxLRU
from repro.mem.radix import RadixTree
from repro.mem.sorted_map import SortedMap

__all__ = [
    "FramePool",
    "TwoLevelFreelist",
    "LockFreeHashTable",
    "ApproxLRU",
    "RadixTree",
    "SortedMap",
]
