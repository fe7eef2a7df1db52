"""One cluster shard: a full engine/cache/device stack serving a key range.

A :class:`ShardSim` is one "machine" of the sharded simulation — its own
:class:`~repro.hw.machine.Machine`, device, mmio engine, DRAM cache, and
a single server :class:`~repro.sim.executor.SimThread` mapping a file
spanning the *whole logical dataset* — pages are addressed by their
global index, so only the pages this shard owns (or holds replicas of)
are ever faulted in.  Epoch by epoch it (1) applies the replication
messages delivered at the boundary, then (2) serves its slice of the
global client op stream through the engine's ``retire`` primitive —
including its batched hit runs and the analytic fast-forward —
collecting an outbox of cycle-stamped replication messages for the
writes it served.

Identity discipline: ids belong to the stack — the shard's machine
numbers its thread and its extent allocator its file — so each shard has
its own local id space and its digest is independent of build order and
shard count (DESIGN.md §13).

Completion stamps reuse the serving layer's cursor idiom (DESIGN.md
§12): an op's completion cycle is the epoch-start clock advanced by the
engine's per-op latency samples through one shared arithmetic chain, in
every executor mode — never the raw clock read mid-batch — so outbox
stamps (and therefore bus delivery order) are mode-invariant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.bus import ShardMessage
from repro.common import units
from repro.mmio.vma import MADV_RANDOM
from repro.sim.conformance import stack_state_digest
from repro.sim.executor import Executor
from repro.sim.fastforward import AccessPlan
from repro.workloads.microbench import WRITE_DATA

if TYPE_CHECKING:   # break the shard <-> coordinator import cycle
    from repro.cluster.coordinator import ClusterConfig

#: Payload every replicated store writes on the replica — the same
#: constant-byte idiom as the microbenchmark's ``WRITE_DATA`` (identical
#: bytes are what make concurrent hit-stores commute).
REPL_DATA = b"\x5A" * 8

#: Message kind for primary -> replica write replication.
KIND_REPLICATE = "replicate"


class ShardOps:
    """One shard's client-op slice for one epoch (parallel lists).

    ``pages`` (global dataset page indices), ``offsets``, and ``writes``
    drive the engine accesses; ``keys`` and ``dests`` ride along so
    writes can be stamped into replication messages (``dests`` is the
    page's replica set under the ring the coordinator routed with).
    Plain lists of primitives.
    """

    __slots__ = ("pages", "offsets", "writes", "keys", "dests")

    def __init__(self) -> None:
        self.pages: List[int] = []
        self.offsets: List[int] = []
        self.writes: List[bool] = []
        self.keys: List[int] = []
        self.dests: List[Tuple[int, ...]] = []

    def append(
        self, page: int, offset: int, write: bool, key: int, dest: Tuple[int, ...]
    ) -> None:
        """Append one routed client op."""
        self.pages.append(page)
        self.offsets.append(offset)
        self.writes.append(write)
        self.keys.append(key)
        self.dests.append(dest)

    def __len__(self) -> int:
        return len(self.pages)

    def truncated(self, count: int) -> "ShardOps":
        """The first ``count`` ops (the served prefix of a kill epoch)."""
        ops = ShardOps()
        ops.pages = self.pages[:count]
        ops.offsets = self.offsets[:count]
        ops.writes = self.writes[:count]
        ops.keys = self.keys[:count]
        ops.dests = self.dests[:count]
        return ops

    def tail(self, start: int) -> List[Tuple[int, int, bool, int]]:
        """The unserved ``(page, key, write, offset)`` ops from ``start``
        on (what the coordinator re-routes after a failover)."""
        return [
            (self.pages[i], self.keys[i], self.writes[i], self.offsets[i])
            for i in range(start, len(self.pages))
        ]


class ShardSim:
    """One shard's stack, server thread, and epoch loop."""

    def __init__(self, shard_id: int, config: "ClusterConfig") -> None:
        from repro.bench.setups import make_stack

        self.shard_id = shard_id
        self.dataset_pages = config.dataset_pages
        self.batched = config.batched
        self.stack = make_stack(
            config.engine_kind, config.device_kind, config.cache_pages
        )
        self.engine = self.stack.engine
        self.engine.fastforward = config.batched and config.fastforward
        self.thread = self.stack.machine.thread(0, f"shard-{shard_id}")
        file = self.stack.allocator.create(
            f"shard-{shard_id}", self.dataset_pages * units.PAGE_SIZE
        )
        self.mapping = self.engine.mmap(self.thread, file)
        self.mapping.madvise(self.thread, MADV_RANDOM)
        self.engine.machine.apply_smt_penalty([self.thread])
        self.alive = True
        self.epochs_run = 0
        self.client_ops = 0
        self.repl_applied = 0
        self.repl_sent = 0
        self.killed_at: Optional[Tuple[int, int]] = None
        self.lost_outbox = 0

    # -- epoch body -----------------------------------------------------------

    def _apply_inbox(self, inbox: Sequence[ShardMessage]) -> None:
        """Apply boundary-delivered replication stores, in delivery order.

        Plain per-op stores on the server thread, *outside* any executor
        run: they charge cycles and dirty pages identically in every
        executor mode, and they complete before the epoch's first client
        op — so no hit-run or fast-forward window can ever observe a
        half-applied inbox.
        """
        for message in inbox:
            offset = message.page * units.PAGE_SIZE + message.offset
            self.mapping.store(self.thread, offset, REPL_DATA)
            self.repl_applied += 1

    def _serve_workload(
        self, ops: ShardOps, outbox: List[ShardMessage]
    ) -> Iterator[None]:
        """The epoch's client-serving iterator (one ``retire`` per step).

        Structurally the microbenchmark's ``access_workload`` plus the
        completion cursor that stamps each served write into ``outbox``
        with the shared-arithmetic completion cycle (module docstring).
        """
        engine = self.engine
        thread = self.thread
        pages_seq, offsets_seq, writes_seq = ops.pages, ops.offsets, ops.writes
        plan = AccessPlan(pages_seq, offsets_seq, writes_seq)
        cursor = thread.clock.now
        index = 0
        total = len(pages_seq)
        while index < total:
            consumed = engine.retire(thread, self.mapping, plan, index, WRITE_DATA)
            for latency in thread.latencies.last(consumed):
                cursor += latency
                if writes_seq[index] and ops.dests[index]:
                    outbox.append(
                        ShardMessage(
                            cycle=cursor,
                            shard_id=self.shard_id,
                            seq=len(outbox),
                            kind=KIND_REPLICATE,
                            dest=ops.dests[index],
                            key=ops.keys[index],
                            page=pages_seq[index],
                            offset=offsets_seq[index],
                        )
                    )
                index += 1
            yield

    def run_epoch(
        self,
        ops: ShardOps,
        inbox: Sequence[ShardMessage],
        kill_at: Optional[int] = None,
    ) -> List[ShardMessage]:
        """Run one epoch; returns the outbox to commit at the boundary.

        ``kill_at`` (from a :class:`~repro.fault.shardkill.ShardKillSpec`)
        truncates the epoch to its first ``kill_at`` client ops, marks
        the shard dead with its engine state frozen exactly there, and
        **discards** the partial outbox — an uncommitted epoch is the
        failover's deterministic data-loss window.  A dead shard ignores
        further epochs (the coordinator stops routing to it anyway).
        """
        if not self.alive:
            return []
        served = ops
        if kill_at is not None:
            served = ops.truncated(min(kill_at, len(ops)))
        self._apply_inbox(inbox)
        outbox: List[ShardMessage] = []
        if len(served):
            # The epoch barrier is a fresh executor over the shard's
            # persistent thread: no run-ahead state (horizons,
            # certificates) survives an epoch boundary, and message
            # delivery always happens between executor runs (DESIGN.md §13).
            executor = Executor(
                batched=self.batched, quiescent=self.engine.run_ahead_unbounded_ok
            )
            executor.add(self.thread, self._serve_workload(served, outbox))
            executor.run()
        self.epochs_run += 1
        self.client_ops += len(served)
        if kill_at is not None:
            self.alive = False
            self.killed_at = (self.epochs_run - 1, len(served))
            self.lost_outbox = len(outbox)
            return []
        self.repl_sent += len(outbox)
        return outbox

    # -- state ---------------------------------------------------------------

    def digest(self) -> Dict:
        """This shard's full-state digest (engine + shard accounting).

        The engine section is the standard conformance structure
        (:func:`repro.sim.conformance.stack_state_digest`); the ``shard``
        section adds the cluster-layer counters, including liveness and
        the frozen kill point.  Mode-reporting counters are excluded by
        the standard ``MODE_COUNTERS`` rule, so the digest is identical
        across unbatched / batched / fast-forward executor modes.
        """
        digest = stack_state_digest(self.stack, [self.thread])
        digest["shard"] = {
            "shard_id": self.shard_id,
            "alive": self.alive,
            "epochs_run": self.epochs_run,
            "client_ops": self.client_ops,
            "repl_applied": self.repl_applied,
            "repl_sent": self.repl_sent,
            "killed_at": self.killed_at,
            "lost_outbox": self.lost_outbox,
        }
        return digest

    def summary(self) -> Dict:
        """Small payload row: per-shard throughput inputs and counters."""
        return {
            "shard_id": self.shard_id,
            "alive": self.alive,
            "clock_cycles": self.thread.clock.now,
            "ops": self.thread.ops_completed,
            "client_ops": self.client_ops,
            "repl_applied": self.repl_applied,
            "repl_sent": self.repl_sent,
            "cache_capacity_pages": getattr(
                self.engine.cache, "capacity_pages", None
            ),
        }
