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
and the ring promotes each of its keys' first replica.

Two execution backends share every line of shard and coordinator logic:

* ``backend="serial"`` — all shards as in-process objects, stepped in
  shard-id order each epoch.  This is the **single-process reference**.
* ``backend="processes"`` — one dedicated worker process per shard
  (from the same multiprocessing context the sweep pool uses), driven
  over pipes with one request/response round per epoch.

The determinism contract (DESIGN.md §13): the merged full-state digest
is a pure function of the :class:`ClusterConfig` — independent of the
backend, of worker scheduling, and of the executor mode (unbatched /
batched / analytic fast-forward).  ``tests/cluster`` and the CI cluster
job assert all three equalities, clean and with an injected failover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def shard_params(self) -> Dict:
        """The picklable per-shard build parameters."""
        return {
            "engine_kind": self.engine_kind,
            "cache_pages": self.cache_pages,
            "dataset_pages": self.dataset_pages,
            "device_kind": self.device_kind,
            "batched": self.batched,
            "fastforward": self.fastforward,
        }


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
    backend: str = "serial"

    def merged_digest(self) -> Dict:
        """The merged full-state digest structure: every shard's digest
        plus the bus and router state.  Backend- and mode-invariant."""
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
            "backend": self.backend,
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


# -- backends ------------------------------------------------------------------


class SerialBackend:
    """All shards in this process, stepped in shard-id order — the
    single-process reference every distributed run is verified against."""

    name = "serial"

    def __init__(self, config: ClusterConfig) -> None:
        self.shards = {
            sid: ShardSim(sid, config.shard_params())
            for sid in range(config.num_shards)
        }

    def run_epoch(
        self,
        assignments: Dict[int, ShardOps],
        inboxes: Dict[int, List[ShardMessage]],
        kill: Optional[Tuple[int, int]],
    ) -> Dict[int, List[ShardMessage]]:
        """One epoch on every live shard; returns per-shard outboxes."""
        outboxes: Dict[int, List[ShardMessage]] = {}
        for sid in sorted(self.shards):
            shard = self.shards[sid]
            if not shard.alive:
                continue
            kill_at = kill[1] if kill is not None and kill[0] == sid else None
            outboxes[sid] = shard.run_epoch(
                assignments.get(sid, ShardOps()), inboxes.get(sid, []), kill_at
            )
        return outboxes

    def digests(self) -> Dict[int, Dict]:
        """Every shard's full-state digest."""
        return {sid: shard.digest() for sid, shard in self.shards.items()}

    def summaries(self) -> Dict[int, Dict]:
        """Every shard's payload summary."""
        return {sid: shard.summary() for sid, shard in self.shards.items()}

    def close(self) -> None:
        """Nothing to tear down in-process."""


def _shard_worker(conn, shard_id: int, params: Dict) -> None:
    """Worker-process body: build one shard, serve epoch requests.

    Protocol (one request/response round per call):
    ``("epoch", ops, inbox, kill_at) -> outbox``;
    ``("digest",) -> (digest, summary)``; ``("stop",) -> exit``.
    Everything on the pipe is plain dataclasses/lists of primitives.
    """
    shard = ShardSim(shard_id, params)
    while True:
        request = conn.recv()
        if request[0] == "epoch":
            _, ops, inbox, kill_at = request
            conn.send(shard.run_epoch(ops, inbox, kill_at))
        elif request[0] == "digest":
            conn.send((shard.digest(), shard.summary()))
        elif request[0] == "stop":
            conn.close()
            return
        else:                      # pragma: no cover - protocol guard
            raise ValueError(f"unknown shard request {request[0]!r}")


class ProcessBackend:
    """One dedicated worker process per shard, driven over pipes.

    Uses the same multiprocessing context policy as the sweep pool
    (fork when available, spawn otherwise).  Requests fan out to every
    live shard before any response is awaited, so shards genuinely run
    their epochs concurrently; responses are collected in shard-id
    order, which — with the bus's ``(cycle, shard_id, seq)`` commit
    ordering — makes arrival timing unobservable.
    """

    name = "processes"

    def __init__(self, config: ClusterConfig) -> None:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._conns = {}
        self._procs = {}
        for sid in range(config.num_shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(child, sid, config.shard_params()),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns[sid] = parent
            self._procs[sid] = proc
        self._dead: set = set()

    def run_epoch(
        self,
        assignments: Dict[int, ShardOps],
        inboxes: Dict[int, List[ShardMessage]],
        kill: Optional[Tuple[int, int]],
    ) -> Dict[int, List[ShardMessage]]:
        """Fan one epoch out to every live shard process; gather outboxes."""
        live = [sid for sid in sorted(self._conns) if sid not in self._dead]
        for sid in live:
            kill_at = kill[1] if kill is not None and kill[0] == sid else None
            self._conns[sid].send(
                ("epoch", assignments.get(sid, ShardOps()), inboxes.get(sid, []), kill_at)
            )
        outboxes = {sid: self._conns[sid].recv() for sid in live}
        if kill is not None:
            self._dead.add(kill[0])
        return outboxes

    def digests(self) -> Dict[int, Dict]:
        """Collect every shard's digest (dead shards answer too — their
        frozen state is part of the merged digest)."""
        return {sid: state[0] for sid, state in self._collect().items()}

    def summaries(self) -> Dict[int, Dict]:
        """Collect every shard's payload summary."""
        return {sid: state[1] for sid, state in self._collect().items()}

    def _collect(self) -> Dict[int, Tuple[Dict, Dict]]:
        if not hasattr(self, "_state"):
            for sid in sorted(self._conns):
                self._conns[sid].send(("digest",))
            self._state = {
                sid: self._conns[sid].recv() for sid in sorted(self._conns)
            }
        return self._state

    def close(self) -> None:
        """Stop and join every shard process."""
        for sid, conn in self._conns.items():
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs.values():
            proc.join(timeout=30)
            if proc.is_alive():               # pragma: no cover - hung worker
                proc.terminate()


_BACKENDS = {"serial": SerialBackend, "processes": ProcessBackend}


def run_cluster(config: ClusterConfig, backend: str = "serial") -> ClusterResult:
    """Run one sharded simulation to completion; returns its result.

    The epoch loop: route the epoch's client window (plus any ops
    re-routed from a killed primary) against the current ring, fan the
    slices to the shards together with the bus's boundary-delivered
    inboxes, commit the returned outboxes (sorted by the
    ``(cycle, shard_id, seq)`` ordering key), and apply any injected
    shard kill — ring removal promotes each key's first replica.  After
    the last client window, drain epochs run until no messages remain
    buffered, so replication always lands before digesting.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown cluster backend {backend!r}")
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
    engine = _BACKENDS[backend](config)
    live = {sid: True for sid in range(config.num_shards)}
    carried: List[Tuple[int, int, bool, int]] = []
    rerouted = 0
    epochs = 0
    num_windows = (config.total_ops + config.epoch_ops - 1) // config.epoch_ops

    try:
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
            outboxes = engine.run_epoch(assignments, inboxes, kill)
            bus.commit([outboxes[sid] for sid in sorted(outboxes)])
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
            shard_digests=engine.digests(),
            shard_summaries=engine.summaries(),
            bus_digest=bus.digest(),
            router_digest={
                "live_shards": tuple(sorted(sid for sid in live if live[sid])),
                "vnodes": config.vnodes,
                "replication": config.replication,
            },
            epochs=epochs,
            rerouted_ops=rerouted,
            backend=engine.name,
        )
    finally:
        engine.close()
