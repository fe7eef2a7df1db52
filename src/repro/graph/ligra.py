"""Ligra-like frontier-based graph framework (paper Section 6.2).

Ligra (Shun & Blelloch, PPoPP'13) processes graphs with ``edgeMap`` /
``vertexMap`` over a frontier.  Here the graph (CSR offsets + targets) and
the algorithm state (parents) live on a *heap* — either a plain DRAM heap
(the paper's DRAM-only baseline) or an mmap-backed heap over a storage
device — so traversals generate exactly the paper's "read-mostly random
I/O pattern".

Parallelism: each round's frontier is partitioned across the simulated
threads; threads process one vertex per executor step, so heap faults and
cache contention interleave in simulated-time order.  Rounds end at a
barrier (Ligra's OpenMP join): threads that finish early idle until the
slowest thread completes the round — the wait is charged to
``idle.barrier`` and becomes part of Figure 6(c)'s idle share.
"""

from __future__ import annotations

from typing import Iterator, List, Set

import numpy as np

from repro.common import constants
from repro.graph.mmap_heap import HeapArray
from repro.graph.rmat import CSRGraph
from repro.sim.executor import Executor, RunResult, SimThread

#: Parent value meaning "not yet visited".
UNVISITED = 0xFFFFFFFFFFFFFFFF

#: Idle quantum a thread burns while polling the round barrier.
_BARRIER_POLL_CYCLES = 2000

#: CPU work per traversed edge, charged before its parent load.
_EDGE_CHARGE = ("app.edge", constants.LIGRA_EDGE_CPU_CYCLES)


class HeapGraph:
    """A CSR graph materialized on a heap (offsets + targets arrays)."""

    def __init__(self, heap, graph: CSRGraph, thread: SimThread) -> None:
        self.heap = heap
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        self.offsets = heap.alloc_array(graph.num_vertices + 1)
        self.targets = heap.alloc_array(max(1, graph.num_edges))
        self._bulk_store(self.offsets, graph.offsets, thread)
        self._bulk_store(self.targets, graph.targets, thread)

    @staticmethod
    def _bulk_store(array: HeapArray, values: np.ndarray, thread: SimThread) -> None:
        """Store ``values`` into ``array`` in 512-element chunks."""
        data = values.astype("<u8").tobytes()
        chunk_bytes = 512 * 8
        for start in range(0, len(data), chunk_bytes):
            array.heap.store(thread, array.offset + start, data[start : start + chunk_bytes])

    def neighbors(self, thread: SimThread, vertex: int) -> List[int]:
        """Adjacency list of ``vertex`` via heap loads."""
        start = self.offsets.read(thread, vertex)
        end = self.offsets.read(thread, vertex + 1)
        if end == start:
            return []
        return self.targets.read_range(thread, start, end - start)


class BFSResult:
    """Outcome of one parallel BFS run."""

    def __init__(self, rounds: int, visited: int, run: RunResult) -> None:
        self.rounds = rounds
        self.visited = visited
        self.run = run
        self.start_cycles = 0.0

    @property
    def makespan_cycles(self) -> float:
        """Execution time of the BFS phase (excludes setup)."""
        return self.run.makespan_cycles - self.start_cycles


class _SharedRound:
    """Barrier + frontier state shared by all BFS workers."""

    def __init__(self, num_threads: int, root: int) -> None:
        self.num_threads = num_threads
        self.round_no = 0
        self.frontier: List[int] = [root]
        self.collected: Set[int] = set()
        self.arrived = 0
        self.release_time = 0.0
        self.done = False
        self.visited = 1
        self.rounds = 0

    def shares(self, index: int) -> List[int]:
        """Thread ``index``'s slice of the current frontier."""
        return self.frontier[index :: self.num_threads]

    def arrive(self, now: float, local_next: List[int]) -> None:
        """A worker finished its share of the round."""
        self.collected.update(local_next)
        self.arrived += 1
        if self.arrived == self.num_threads:
            self._advance(now)

    def _advance(self, now: float) -> None:
        self.rounds += 1
        self.frontier = sorted(self.collected)
        self.visited += len(self.frontier)
        self.collected = set()
        self.arrived = 0
        self.round_no += 1
        self.release_time = now
        if not self.frontier:
            self.done = True


class ParallelBFS:
    """Breadth-first search across simulated threads over a heap graph."""

    def __init__(
        self,
        heap,
        graph: CSRGraph,
        threads: List[SimThread],
        setup_thread: SimThread = None,
    ) -> None:
        """``setup_thread`` (default: threads[0]) pays for materializing
        the graph and initializing state — the paper's "initialization"
        phase, which its Figure 6 execution times exclude."""
        if not threads:
            raise ValueError("at least one thread required")
        self.threads = threads
        main = setup_thread if setup_thread is not None else threads[0]
        self.hgraph = HeapGraph(heap, graph, main)
        self.parents = heap.alloc_array(graph.num_vertices)
        self.parents.fill(main, UNVISITED)
        self.heap = heap
        self.setup_thread = main

    def _worker(self, thread: SimThread, index: int, state: _SharedRound) -> Iterator[None]:
        parents = self.parents
        hgraph = self.hgraph
        while not state.done:
            my_round = state.round_no
            share = state.shares(index)
            local_next: List[int] = []
            for vertex in share:
                op_start = thread.clock.now
                thread.clock.charge("app.vertex", constants.LIGRA_VERTEX_CPU_CYCLES)
                neighbors = hgraph.neighbors(thread, vertex)
                plan = parents.load_plan(neighbors)
                # Per neighbor: charge the edge work, read its parent, and
                # claim it if unvisited.  The load run stops at each
                # unvisited parent so the claim lands before the next read.
                pos = 0
                while pos < len(neighbors):
                    values = parents.load_run(thread, plan, pos, _EDGE_CHARGE, UNVISITED)
                    pos += len(values)
                    if values[-1] == UNVISITED:
                        neighbor = neighbors[pos - 1]
                        parents.write(thread, neighbor, vertex)
                        local_next.append(neighbor)
                thread.record_op(op_start)
                yield
            state.arrive(thread.clock.now, local_next)
            # Poll the barrier until the round advances (or BFS finishes).
            while state.round_no == my_round and not state.done:
                thread.clock.charge("idle.barrier", _BARRIER_POLL_CYCLES)
                yield
            thread.clock.wait_until(state.release_time, "idle.barrier")
            yield

    def run(self, root: int) -> BFSResult:
        """Execute BFS from ``root`` on the measurement threads.

        Threads start at the setup thread's clock (simulated time carries
        across phases); the result's execution time is the makespan of
        the BFS itself.
        """
        start = self.setup_thread.clock.now
        for thread in self.threads:
            thread.clock.now = max(thread.clock.now, start)
        self.parents.write(self.setup_thread, root, root)
        state = _SharedRound(len(self.threads), root)
        executor = Executor()
        for index, thread in enumerate(self.threads):
            executor.add(thread, self._worker(thread, index, state))
        run = executor.run()
        result = BFSResult(state.rounds, state.visited, run)
        result.start_cycles = start
        return result

    def parent_of(self, thread: SimThread, vertex: int) -> int:
        """Final parent of ``vertex`` (UNVISITED if unreached)."""
        return self.parents.read(thread, vertex)
