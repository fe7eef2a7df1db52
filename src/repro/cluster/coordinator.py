"""The cluster coordinator: epoch loop, routing, failover, merged digest.

``run_cluster`` shards one logical simulation across N machines
(:class:`~repro.cluster.shard.ShardSim`), each its own engine/cache/
device stack, exchanging cycle-stamped messages only at epoch boundaries
through the deterministic :class:`~repro.cluster.bus.EpochBus`.  The
global client op stream is a seeded counter-stream plan
(:func:`repro.sim.rand.counter_draws`) over one logical dataset of
``dataset_pages`` pages; each op is routed by its home page through the
consistent hash ring, so the *same* dataset is served whatever the shard
count; writes replicate to the page's replica set; an optional
:class:`~repro.fault.shardkill.ShardKillSpec` kills a primary mid-epoch
and the ring promotes each of its keys' first replica.  Every shard is
an in-process object, stepped in shard-id order each epoch.

The determinism contract (DESIGN.md §13): the merged full-state digest
is a pure function of the :class:`ClusterConfig` — independent of the
executor mode (unbatched / batched / analytic fast-forward) and of
replay.  ``tests/cluster`` and the CI cluster job assert both
equalities, clean and with an injected failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.bus import EpochBus, ShardMessage
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.shard import ShardOps, ShardSim
from repro.common import units
from repro.fault.shardkill import ShardKillSpec
from repro.sim.conformance import hash_digest
from repro.sim.rand import counter_draws
from repro.sim.stats import throughput_ops_per_sec

#: Tags naming the cluster client plan's independent counter streams.
_TAG_KEY, _TAG_OFFSET, _TAG_WRITE = 41, 42, 43


@dataclass
class ClusterConfig:
    """Parameters of one cluster cell (a pure function of which the
    merged digest is — the §13 contract)."""

    num_shards: int = 4
    #: Copies of each key (primary + replicas); 1 disables replication.
    replication: int = 2
    engine_kind: str = "aquila"
    cache_pages: int = 512
    #: Pages in the *one logical dataset*, sharded by home page; each
    #: shard's file spans the whole dataset but only its owned (and
    #: replicated) pages are ever touched.
    dataset_pages: int = 256
    total_ops: int = 8192
    #: Client ops per epoch (the boundary cadence of the message bus).
    epoch_ops: int = 1024
    write_fraction: float = 0.25
    device_kind: str = "pmem"
    seed: int = 7
    batched: bool = True
    fastforward: bool = True
    vnodes: int = DEFAULT_VNODES
    #: Optional injected primary failure (see ``repro.fault.shardkill``).
    kill: Optional[ShardKillSpec] = None


@dataclass
class ClusterResult:
    """Everything one cluster run produced."""

    config: ClusterConfig
    shard_digests: Dict[int, Dict]
    shard_summaries: Dict[int, Dict]
    bus_digest: Dict
    router_digest: Dict
    epochs: int = 0
    rerouted_ops: int = 0

    def merged_digest(self) -> Dict:
        """The merged full-state digest structure: every shard's digest
        plus the bus and router state.  Mode-invariant."""
        return {
            "shards": {sid: d for sid, d in sorted(self.shard_digests.items())},
            "bus": self.bus_digest,
            "router": self.router_digest,
            "epochs": self.epochs,
            "rerouted_ops": self.rerouted_ops,
        }

    def merged_hash(self) -> str:
        """The canonical sha256 of :meth:`merged_digest`."""
        return hash_digest(self.merged_digest())

    def makespan_cycles(self) -> float:
        """Slowest shard's final clock (cluster-wide elapsed time)."""
        return max(
            (s["clock_cycles"] for s in self.shard_summaries.values()), default=0.0
        )

    def total_client_ops(self) -> int:
        """Client ops served across all shards."""
        return sum(s["client_ops"] for s in self.shard_summaries.values())

    def throughput_ops_per_sec(self) -> float:
        """Aggregate cluster throughput over the makespan."""
        return throughput_ops_per_sec(self.total_client_ops(), self.makespan_cycles())

    def payload(self) -> Dict:
        """The sweep-cell payload row."""
        balance = sorted(
            s["client_ops"] for s in self.shard_summaries.values()
        )
        return {
            "engine": self.config.engine_kind,
            "shards": self.config.num_shards,
            "replication": self.config.replication,
            # Constant (the cluster has one execution path); kept so the
            # committed sweep payloads reproduce byte for byte.
            "backend": "serial",
            "epochs": self.epochs,
            "client_ops": self.total_client_ops(),
            "rerouted_ops": self.rerouted_ops,
            "makespan_cycles": self.makespan_cycles(),
            "throughput": self.throughput_ops_per_sec(),
            "messages": self.bus_digest["messages_committed"],
            "deliveries": self.bus_digest["deliveries"],
            "min_shard_ops": balance[0] if balance else 0,
            "max_shard_ops": balance[-1] if balance else 0,
            "dead_shards": sorted(
                sid
                for sid, s in self.shard_summaries.items()
                if not s["alive"]
            ),
            "merged_digest": self.merged_hash(),
        }


class ClientPlan:
    """The global client op stream: seeded, route-independent.

    Keys, in-page offsets, and write flags come from dedicated counter
    streams over the cell seed, so the op sequence exists *before* any
    routing decision — the router partitions it, never perturbs it.  A
    key's home page is ``key % dataset_pages``: a *global* index into
    the one logical dataset.  Routing, serving, and replication all
    address that page, so a replicated store lands at the identical
    offset of every owner's dataset-sized file — and a run with more
    shards serves the same dataset, just spread thinner.
    """

    def __init__(self, config: ClusterConfig) -> None:
        total = config.total_ops
        key_draws = counter_draws(config.seed, _TAG_KEY, total)
        offset_draws = counter_draws(config.seed, _TAG_OFFSET, total)
        self.keys: List[int] = key_draws.tolist()
        self.pages: List[int] = (key_draws % config.dataset_pages).tolist()
        self.offsets: List[int] = (offset_draws % (units.PAGE_SIZE - 8)).tolist()
        fraction = config.write_fraction
        if fraction <= 0.0:
            self.writes = [False] * total
        elif fraction >= 1.0:
            self.writes = [True] * total
        else:
            threshold = min(int(fraction * 2.0 ** 64), (1 << 64) - 1)
            write_draws = counter_draws(config.seed, _TAG_WRITE, total)
            self.writes = (write_draws < threshold).tolist()

    def epoch_window(self, epoch: int, epoch_ops: int) -> range:
        """Global op indices of epoch ``epoch``."""
        start = epoch * epoch_ops
        return range(start, min(start + epoch_ops, len(self.keys)))


def _route(
    ring: HashRing,
    replication: int,
    ops: List[Tuple[int, int, bool, int]],
    live: Dict[int, bool],
) -> Dict[int, ShardOps]:
    """Partition ``(page, key, write, offset)`` ops into per-shard slices.

    Routing is a pure function of the current ring, keyed by the op's
    *home page* (the unit of ownership — every key on a page lives with
    it): the primary serves the op, and a write's destination set is the
    page's replica list (dead shards excluded — a failed replica simply
    stops receiving).
    """
    assignments: Dict[int, ShardOps] = {}
    for page, key, write, offset in ops:
        owners = ring.owners(page, replication if write else 1)
        primary = owners[0]
        dest: Tuple[int, ...] = ()
        if write:
            dest = tuple(sid for sid in owners[1:] if live.get(sid, False))
        slot = assignments.get(primary)
        if slot is None:
            slot = assignments[primary] = ShardOps()
        slot.append(page, offset, write, key, dest)
    return assignments


def run_cluster(config: ClusterConfig) -> ClusterResult:
    """Run one sharded simulation to completion; returns its result.

    The epoch loop: route the epoch's client window (plus any ops
    re-routed from a killed primary) against the current ring, step
    every live shard in shard-id order over its slice and the bus's
    boundary-delivered inbox, commit the returned outboxes (sorted by
    the ``(cycle, shard_id, seq)`` ordering key), and apply any injected
    shard kill — ring removal promotes each key's first replica.  After
    the last client window, drain epochs run until no messages remain
    buffered, so replication always lands before digesting.
    """
    if config.num_shards < 1:
        raise ValueError("a cluster needs at least one shard")
    if config.replication < 1 or config.replication > config.num_shards:
        raise ValueError("replication must be in [1, num_shards]")
    if config.kill is not None and config.kill.shard_id >= config.num_shards:
        raise ValueError("kill.shard_id is not a cluster shard")
    if config.kill is not None and config.num_shards == 1:
        raise ValueError("cannot fail over a one-shard cluster")

    plan = ClientPlan(config)
    ring = HashRing(range(config.num_shards), config.vnodes, config.seed)
    bus = EpochBus()
    shards = [ShardSim(sid, config) for sid in range(config.num_shards)]
    live = {sid: True for sid in range(config.num_shards)}
    carried: List[Tuple[int, int, bool, int]] = []
    rerouted = 0
    epochs = 0
    num_windows = (config.total_ops + config.epoch_ops - 1) // config.epoch_ops

    epoch = 0
    while True:
        window = plan.epoch_window(epoch, config.epoch_ops)
        pending_msgs = bus.pending()
        if epoch >= num_windows and not carried and not pending_msgs:
            break
        ops = carried + [
            (plan.pages[i], plan.keys[i], plan.writes[i], plan.offsets[i])
            for i in window
        ]
        carried = []
        assignments = _route(ring, config.replication, ops, live)
        kill: Optional[Tuple[int, int]] = None
        if (
            config.kill is not None
            and config.kill.epoch == epoch
            and live.get(config.kill.shard_id, False)
        ):
            kill = (config.kill.shard_id, config.kill.op_index)
        inboxes = {sid: bus.take_inbox(sid) for sid in live if live[sid]}
        outboxes: List[List[ShardMessage]] = []
        for shard in shards:
            if not shard.alive:
                continue
            sid = shard.shard_id
            kill_at = kill[1] if kill is not None and kill[0] == sid else None
            outboxes.append(
                shard.run_epoch(
                    assignments.get(sid, ShardOps()), inboxes.get(sid, []), kill_at
                )
            )
        bus.commit(outboxes)
        if kill is not None:
            dead_sid = kill[0]
            live[dead_sid] = False
            bus.drop_inbox(dead_sid)
            victim_ops = assignments.get(dead_sid)
            if victim_ops is not None:
                tail = victim_ops.tail(min(kill[1], len(victim_ops)))
                carried.extend(tail)
                rerouted += len(tail)
            ring = ring.remove(dead_sid)
        epochs += 1
        epoch += 1

    return ClusterResult(
        config=config,
        shard_digests={shard.shard_id: shard.digest() for shard in shards},
        shard_summaries={shard.shard_id: shard.summary() for shard in shards},
        bus_digest=bus.digest(),
        router_digest={
            "live_shards": tuple(sorted(sid for sid in live if live[sid])),
            "vnodes": config.vnodes,
            "replication": config.replication,
        },
        epochs=epochs,
        rerouted_ops=rerouted,
    )
