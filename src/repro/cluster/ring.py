"""Consistent-hash routing of keys over shard replicas.

The cluster's router is a classic consistent-hash ring with virtual
nodes: every shard owns ``vnodes`` points on a 64-bit ring, a key is
owned by the first point at or clockwise of its hash, and its replicas
are the next ``replication - 1`` *distinct* shards further clockwise.
All hashes are :func:`repro.sim.rand.mix64` / sha-derived — never
Python's randomized ``hash()`` — so placement is a pure function of
``(seed, shard ids, vnodes)`` and identical in every process, so a
sweep cell routes every key the same way on every replay and in every
worker (DESIGN.md §13).

The ring is also the failover mechanism: :meth:`HashRing.remove` drops a
dead shard's points, and by the successor rule every key the dead shard
owned remaps exactly to its *first replica* — the shard that already
holds the key's replicated data.  :func:`promoted_owner_is_replica`
states that invariant; ``tests/cluster/test_ring.py`` checks it key by
key.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from repro.sim.rand import derive_seed, mix64

#: Default virtual nodes per shard.  Enough that a 4-shard ring splits a
#: uniform key space within a few percent of evenly; small enough that
#: ring construction stays trivial.
DEFAULT_VNODES = 64


def key_hash(key: int, seed: int = 0) -> int:
    """The 64-bit ring position of ``key`` (splitmix64-mixed, stable)."""
    return mix64((key ^ mix64(seed)) & ((1 << 64) - 1))


class HashRing:
    """A consistent-hash ring over integer shard ids.

    ``shard_ids`` seed the ring; ``remove`` handles failover.  Lookup is
    a binary search over the sorted point list — O(log(shards * vnodes))
    per key, cheap enough to route every client op individually.
    """

    def __init__(
        self,
        shard_ids: Sequence[int],
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0,
    ) -> None:
        if not shard_ids:
            raise ValueError("a ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError("shard ids must be unique")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.seed = seed
        self.vnodes = vnodes
        self.shard_ids: Tuple[int, ...] = tuple(shard_ids)
        self._points: List[Tuple[int, int]] = []   # (hash, shard_id)
        for shard_id in self.shard_ids:
            for v in range(vnodes):
                point = derive_seed(seed, f"ring-shard{shard_id}-v{v}")
                self._points.append((point, shard_id))
        # Ties between vnode points are broken by shard id so the sorted
        # order (hence every placement) is total and deterministic.
        self._points.sort()
        self._hashes = [point for point, _ in self._points]

    def owners(self, key: int, count: int = 1) -> List[int]:
        """The first ``count`` distinct shards clockwise of ``key``'s hash.

        Entry 0 is the primary; the rest are the replicas in replication
        order.  ``count`` is clamped to the number of live shards, so a
        one-shard ring simply yields ``[that shard]``.
        """
        position = key_hash(key, self.seed)
        start = bisect_left(self._hashes, position) % len(self._points)
        owners: List[int] = []
        want = min(count, len(self.shard_ids))
        for step in range(len(self._points)):
            shard_id = self._points[(start + step) % len(self._points)][1]
            if shard_id not in owners:
                owners.append(shard_id)
                if len(owners) == want:
                    break
        return owners

    def primary(self, key: int) -> int:
        """The shard owning ``key``."""
        return self.owners(key, 1)[0]

    def replicas(self, key: int, replication: int) -> List[int]:
        """The replica shards of ``key`` (primary excluded)."""
        return self.owners(key, replication)[1:]

    def remove(self, shard_id: int) -> "HashRing":
        """A new ring without ``shard_id`` (failover promotion).

        By the successor rule, every key previously owned by the removed
        shard remaps to the next distinct shard on the ring — its first
        replica under the old ring — so a replicated key's data is
        already present on its promoted owner.
        """
        if shard_id not in self.shard_ids:
            raise ValueError(f"shard {shard_id} is not on the ring")
        survivors = tuple(s for s in self.shard_ids if s != shard_id)
        return HashRing(survivors, self.vnodes, self.seed)

    def assignment_counts(self, keys: Sequence[int]) -> Dict[int, int]:
        """How many of ``keys`` each shard primaries (balance check)."""
        counts = {shard_id: 0 for shard_id in self.shard_ids}
        for key in keys:
            counts[self.primary(key)] += 1
        return counts


def promoted_owner_is_replica(ring: HashRing, dead: int, keys: Sequence[int]) -> bool:
    """Whether, for every ``key`` primaried by ``dead``, removal promotes
    the key's first replica (the shard already holding its data).

    This is the property that makes ring-removal failover lossless for
    committed epochs at replication >= 2; the ring test suite asserts it
    over seeded key samples.
    """
    survivors = ring.remove(dead)
    for key in keys:
        if ring.primary(key) != dead:
            continue
        old_replicas = ring.replicas(key, 2)
        if not old_replicas:
            return False
        if survivors.primary(key) != old_replicas[0]:
            return False
    return True
