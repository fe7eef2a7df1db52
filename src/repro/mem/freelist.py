"""Aquila's hierarchical two-level freelist (paper Section 3.2).

"The first level consists of a queue per NUMA node, while the second level
of a queue per core.  When a page is required, the core checks, in order,
its local (core) queue, the local NUMA node queue, and the remote NUMA
node queues. ... When a page is evicted from the cache, it is placed in
the local core queue.  If the number of pages in the local core queue
exceeds a threshold, they are moved to the appropriate NUMA queue.  All
page movement between first and second level queues is performed in
batches (4096 pages in our evaluation).  By implementing lock-free
freelist queues and using batching in our two-level allocator, we do not
observe high contention."

Cost model: core-queue operations are uncontended lock-free ops; NUMA-queue
operations go through a striped atomic timeline; batch moves amortize a
small per-page cost.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.common import constants
from repro.mem.frames import FramePool
from repro.sim.clock import CycleClock


class TwoLevelFreelist:
    """Per-core + per-NUMA free-frame queues with batched movement."""

    def __init__(
        self,
        pool: FramePool,
        num_cores: int,
        core_of_numa_node,
        move_batch: int = constants.FREELIST_MOVE_BATCH_PAGES,
        core_threshold: int = constants.FREELIST_CORE_THRESHOLD_PAGES,
    ) -> None:
        """``core_of_numa_node`` maps a core index to its NUMA node."""
        self.pool = pool
        self.num_cores = num_cores
        # Looked up on every batch move: tabulate the static map once.
        self._node_of_core = [core_of_numa_node(core) for core in range(num_cores)]
        self.move_batch = move_batch
        self.core_threshold = core_threshold
        self._core_queues: List[Deque[int]] = [deque() for _ in range(num_cores)]
        self._node_queues: List[Deque[int]] = [deque() for _ in range(pool.numa_nodes)]
        self._node_ops = [0] * pool.numa_nodes
        self.allocations = 0
        self.frees = 0
        self.batch_moves = 0
        # Initially all frames live in their NUMA node's queue.
        for frame in range(pool.total_frames):
            self._node_queues[pool.node_of(frame)].append(frame)

    def free_count(self) -> int:
        """Total free frames across all queues."""
        return sum(len(q) for q in self._core_queues) + sum(
            len(q) for q in self._node_queues
        )

    def core_queue_len(self, core: int) -> int:
        """Free frames parked on ``core``'s queue."""
        return len(self._core_queues[core])

    def node_queue_len(self, node: int) -> int:
        """Free frames parked on NUMA ``node``'s queue."""
        return len(self._node_queues[node])

    def allocate(self, clock: CycleClock, core: int) -> Optional[int]:
        """Pop one free frame for ``core``; None when everything is empty.

        Search order per the paper: local core queue, local NUMA queue,
        remote NUMA queues.  Refills from a NUMA queue pull a whole batch
        into the core queue.
        """
        core_queue = self._core_queues[core]
        clock.charge("cache.freelist", constants.FREELIST_OP_CYCLES)
        if not core_queue:
            self._refill_from_nodes(clock, core)
        if not core_queue:
            return None
        frame = core_queue.popleft()
        self.pool.mark_allocated(frame)
        self.allocations += 1
        return frame

    def _refill_from_nodes(self, clock: CycleClock, core: int) -> None:
        local_node = self._node_of_core[core]
        order = [local_node] + [
            n for n in range(self.pool.numa_nodes) if n != local_node
        ]
        core_queue = self._core_queues[core]
        for node in order:
            node_queue = self._node_queues[node]
            if not node_queue:
                continue
            take = min(self.move_batch, len(node_queue))
            # Lock-free queue splice: "By implementing lock-free freelist
            # queues and using batching ... we do not observe high
            # contention" (paper Section 3.2) — a fixed CAS cost, no
            # serialization point.
            clock.charge("cache.freelist.cas", constants.LOCK_TRANSFER_CYCLES)
            self._node_ops[node] += 1
            clock.charge(
                "cache.freelist.batch_move",
                constants.FREELIST_BATCH_MOVE_PER_PAGE_CYCLES * take,
            )
            for _ in range(take):
                core_queue.append(node_queue.popleft())
            self.batch_moves += 1
            return

    def free(self, clock: CycleClock, core: int, frame: int) -> None:
        """Return ``frame`` to ``core``'s queue, spilling in batches."""
        self.pool.mark_free(frame)
        self.frees += 1
        clock.charge("cache.freelist", constants.FREELIST_OP_CYCLES)
        core_queue = self._core_queues[core]
        core_queue.append(frame)
        if len(core_queue) > self.core_threshold:
            self._spill_to_node(clock, core)

    def _spill_to_node(self, clock: CycleClock, core: int) -> None:
        node = self._node_of_core[core]
        core_queue = self._core_queues[core]
        take = min(self.move_batch, len(core_queue))
        clock.charge("cache.freelist.cas", constants.LOCK_TRANSFER_CYCLES)
        self._node_ops[node] += 1
        clock.charge(
            "cache.freelist.batch_move",
            constants.FREELIST_BATCH_MOVE_PER_PAGE_CYCLES * take,
        )
        node_queue = self._node_queues[node]
        for _ in range(take):
            node_queue.append(core_queue.popleft())
        self.batch_moves += 1
