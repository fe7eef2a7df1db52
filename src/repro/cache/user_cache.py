"""Sharded user-space block cache (RocksDB's recommended configuration).

"The recommended mode of operation is to use explicit read/write calls, in
direct I/O mode, combined with a user-space cache" (paper Section 5).  The
paper's Figure 7 measures this path's CPU price for RocksDB random reads:

* ~9 K cycles of lookup work per get (hash, shard lock, LRU touch, pin),
* ~13 K cycles of system-call overhead per miss (direct-I/O pread,
  excluding device time),
* ~23 K cycles of eviction + insert work per miss.

The cache stores real block bytes keyed by (file, block).  Shard locks are
modeled with spinlock timelines: LRU-cache sharding keeps contention mild,
so — unlike the kernel tree lock — this structure's problem is *cycles per
operation*, not serialization, exactly the paper's framing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.common import constants
from repro.obs import METRICS
from repro.sim.clock import CycleClock
from repro.sim.locks import SpinlockTimeline


class UserSpaceCache:
    """LRU block cache with N shards and per-shard locks."""

    def __init__(self, capacity_blocks: int, num_shards: int = 64) -> None:
        if capacity_blocks <= 0:
            raise ValueError("capacity must be positive")
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.capacity_blocks = capacity_blocks
        self.num_shards = num_shards
        self._shards: Dict[int, "OrderedDict[Tuple[int, int], bytes]"] = {
            i: OrderedDict() for i in range(num_shards)
        }
        self._locks = [SpinlockTimeline(f"ucache.shard{i}") for i in range(num_shards)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0
        METRICS.bind_object(
            "cache.user",
            self,
            {
                "hits": "hits",
                "misses": "misses",
                "evictions": "evictions",
                "inserts": "inserts",
            },
        )

    def _shard_of(self, key: Tuple[int, int]) -> int:
        return hash(key) % self.num_shards

    def _shard_capacity(self) -> int:
        return max(1, self.capacity_blocks // self.num_shards)

    def resident_blocks(self) -> int:
        """Blocks currently cached."""
        return sum(len(shard) for shard in self._shards.values())

    def get(
        self, clock: CycleClock, thread_id: int, file_id: int, block: int
    ) -> Optional[bytes]:
        """Look up a block, paying the user-space cache-management price."""
        key = (file_id, block)
        shard_id = self._shard_of(key)
        lock = self._locks[shard_id]
        lock.acquire(clock, thread_id, "idle.lock.ucache")
        clock.charge("ucache.lookup", constants.USERCACHE_LOOKUP_CYCLES)
        shard = self._shards[shard_id]
        data = shard.get(key)
        if data is not None:
            shard.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        lock.release(clock, thread_id)
        return data

    def insert(
        self, clock: CycleClock, thread_id: int, file_id: int, block: int, data: bytes
    ) -> None:
        """Insert a block read from the device, evicting LRU if needed."""
        key = (file_id, block)
        shard_id = self._shard_of(key)
        lock = self._locks[shard_id]
        lock.acquire(clock, thread_id, "idle.lock.ucache")
        clock.charge("ucache.insert", constants.USERCACHE_INSERT_CYCLES)
        shard = self._shards[shard_id]
        if key not in shard and len(shard) >= self._shard_capacity():
            shard.popitem(last=False)
            self.evictions += 1
            clock.charge("ucache.evict", constants.USERCACHE_EVICT_CYCLES)
        shard[key] = bytes(data)
        shard.move_to_end(key)
        self.inserts += 1
        lock.release(clock, thread_id)

    def invalidate_range(self, file_id: int, first_block: int, last_block: int) -> int:
        """Drop cached blocks of ``file_id`` in [first, last]; returns count."""
        dropped = 0
        for block in range(first_block, last_block + 1):
            key = (file_id, block)
            shard = self._shards[self._shard_of(key)]
            if key in shard:
                del shard[key]
                dropped += 1
        return dropped

    def invalidate(self, file_id: int) -> int:
        """Drop every cached block of ``file_id`` (file deletion); returns count."""
        dropped = 0
        for shard in self._shards.values():
            stale = [key for key in shard if key[0] == file_id]
            for key in stale:
                del shard[key]
                dropped += 1
        return dropped

    @property
    def hit_ratio(self) -> float:
        """Fraction of gets served from cache."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
