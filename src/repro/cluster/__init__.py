"""repro.cluster — a sharded simulation with a determinism contract.

One logical simulation sharded across N "machines", each a full
engine/cache/device stack (:class:`~repro.cluster.shard.ShardSim`),
exchanging cycle-stamped messages only at epoch boundaries through a
deterministic bus.  The pieces:

* :mod:`~repro.cluster.ring` — consistent-hash placement of keys over
  shard replicas; ``remove`` is the failover promotion rule.
* :mod:`~repro.cluster.bus` — the epoch-synchronized message bus;
  delivery order is fixed by ``(cycle, shard_id, seq)``.
* :mod:`~repro.cluster.shard` — one shard's stack and epoch loop,
  reusing the engine's batched/fast-forward paths unchanged.
* :mod:`~repro.cluster.coordinator` — the epoch loop that steps every
  shard in shard-id order, routing, and failover.

The determinism contract is DESIGN.md §13: the merged full-state digest
of a cluster run is a pure function of its :class:`ClusterConfig` —
invariant across executor modes (unbatched / batched / fast-forward)
and clean-vs-replayed failover runs.
"""

from __future__ import annotations

from repro.cluster.bus import EpochBus, ShardMessage, order_key
from repro.cluster.coordinator import (
    ClientPlan,
    ClusterConfig,
    ClusterResult,
    run_cluster,
)
from repro.cluster.ring import (
    DEFAULT_VNODES,
    HashRing,
    key_hash,
    promoted_owner_is_replica,
)
from repro.cluster.shard import ShardOps, ShardSim

__all__ = [
    "ClientPlan",
    "ClusterConfig",
    "ClusterResult",
    "DEFAULT_VNODES",
    "EpochBus",
    "HashRing",
    "ShardMessage",
    "ShardOps",
    "ShardSim",
    "key_hash",
    "order_key",
    "promoted_owner_is_replica",
    "run_cluster",
]
