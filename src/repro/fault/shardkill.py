"""Seed-deterministic shard-kill triggers for cluster failover runs.

The cluster coordinator (:mod:`repro.cluster.coordinator`) injects
primary failures the same way the device layer injects faults: from a
spec that is a pure function of a seed, never from wall-clock time or
scheduling accidents.  A :class:`ShardKillSpec` names the victim shard,
the epoch in which it dies, and the op ordinal *within* that epoch after
which it stops serving — the same op-indexed trigger idiom as
:class:`~repro.fault.plan.FaultSpec` triggers and the CRASH controller's
boundary ordinals (DESIGN.md §7): "kill shard 2 at epoch 3, op 17"
names the same instant on every replay and in every executor mode.

Kill semantics (the part that keeps failover deterministic, §13):

* the victim serves its epoch's client ops up to ``op_index``, then
  halts with its engine state frozen exactly there;
* its **uncommitted outbox is discarded** — epoch-boundary commit is the
  replication durability point, so the partial epoch is the (bounded,
  deterministic) data-loss window;
* the coordinator removes the shard from the ring, which by the
  consistent-hash successor rule promotes each key's first replica, and
  re-routes the victim's unserved ops to the promoted owners at the next
  epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import rand


@dataclass(frozen=True)
class ShardKillSpec:
    """One injected primary failure: kill ``shard_id`` during ``epoch``
    after it has served ``op_index`` of that epoch's client ops."""

    shard_id: int
    epoch: int
    op_index: int

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")
        if self.op_index < 0:
            raise ValueError("op_index must be non-negative")


def derive_shard_kill(
    seed: int, num_shards: int, num_epochs: int, epoch_ops: int
) -> ShardKillSpec:
    """A seeded kill spec: pure function of ``(seed, grid sizes)``.

    The victim, epoch, and intra-epoch op ordinal are drawn from the
    dedicated ``cluster-shard-kill`` stream (the
    :func:`repro.sim.rand.stream` idiom), so a failover property test can
    sweep seeds and replay any failure bit-identically.  The kill epoch
    avoids epoch 0 when possible so at least one full replication round
    precedes the failure — the regime where promotion must recover
    committed writes from the replica.  The op ordinal is drawn from the
    victim's *expected slice* of the epoch (``epoch_ops / num_shards``),
    so the kill usually lands mid-slice and leaves an unserved tail for
    the coordinator to re-route — a boundary kill (ordinal past the
    slice) is legal but exercises less of the failover path.
    """
    if num_shards < 1 or num_epochs < 1 or epoch_ops < 1:
        raise ValueError("kill derivation needs a non-empty cluster grid")
    rng = rand.stream(seed, "cluster-shard-kill")
    epoch_floor = 1 if num_epochs > 1 else 0
    return ShardKillSpec(
        shard_id=rng.randrange(num_shards),
        epoch=rng.randrange(epoch_floor, num_epochs),
        op_index=rng.randrange(max(1, epoch_ops // num_shards)),
    )
