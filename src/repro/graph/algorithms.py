"""Further Ligra-style algorithms over heap-resident graphs.

The paper evaluates BFS; Ligra itself ships PageRank and
connected-components, and both stress the mmio heap the same way
(read-mostly random access over out-of-core arrays).  These
implementations reuse the round/barrier execution model of
:mod:`repro.graph.ligra` and run on any heap (DRAM, Linux mmap, Aquila).

Numeric state lives in uint64 heap words; PageRank uses 32.32 fixed-point
arithmetic so the heap substrate stays type-uniform.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.common import constants
from repro.graph.ligra import HeapGraph
from repro.graph.rmat import CSRGraph
from repro.sim.executor import Executor, RunResult, SimThread

#: 32.32 fixed-point scale for PageRank ranks.
FIXED_ONE = 1 << 32

_BARRIER_POLL_CYCLES = 2000


class _Rounds:
    """Barrier state for fixed-vertex-set round algorithms."""

    def __init__(self, num_threads: int) -> None:
        self.num_threads = num_threads
        self.round_no = 0
        self.arrived = 0
        self.release_time = 0.0
        self.done = False
        self.changed_this_round = 0

    def arrive(self, now: float, changed: int, finish: bool) -> None:
        self.changed_this_round += changed
        self.arrived += 1
        if self.arrived == self.num_threads:
            if finish or self.changed_this_round == 0:
                self.done = True
            self.changed_this_round = 0
            self.arrived = 0
            self.round_no += 1
            self.release_time = now


def _barrier_wait(thread: SimThread, state: _Rounds, my_round: int) -> Iterator[None]:
    while state.round_no == my_round and not state.done:
        thread.clock.charge("idle.barrier", _BARRIER_POLL_CYCLES)
        yield
    thread.clock.wait_until(state.release_time, "idle.barrier")
    yield


class ParallelPageRank:
    """Push-style PageRank in 32.32 fixed point over a heap graph."""

    def __init__(
        self,
        heap,
        graph: CSRGraph,
        threads: List[SimThread],
        damping: float = 0.85,
        setup_thread: SimThread = None,
    ) -> None:
        if not threads:
            raise ValueError("at least one thread required")
        self.threads = threads
        self.graph = graph
        self.damping = damping
        main = setup_thread if setup_thread is not None else threads[0]
        self.setup_thread = main
        self.hgraph = HeapGraph(heap, graph, main)
        self.ranks = heap.alloc_array(graph.num_vertices)
        self.next_ranks = heap.alloc_array(graph.num_vertices)
        initial = FIXED_ONE // max(1, graph.num_vertices)
        self.ranks.fill(main, initial)
        self.heap = heap

    def _worker(self, thread: SimThread, index: int, state: _Rounds,
                iterations: int) -> Iterator[None]:
        n = self.graph.num_vertices
        base = int((1.0 - self.damping) * FIXED_ONE) // max(1, n)
        my_vertices = list(range(index, n, len(self.threads)))
        while not state.done:
            my_round = state.round_no
            if my_round >= iterations:
                state.arrive(thread.clock.now, 0, finish=True)
                yield from _barrier_wait(thread, state, my_round)
                continue
            # Phase: pull contributions into next_ranks for my vertices.
            for vertex in my_vertices:
                thread.clock.charge("app.vertex", constants.LIGRA_VERTEX_CPU_CYCLES)
                self.next_ranks.write(thread, vertex, base)
                yield
            state.arrive(thread.clock.now, 1, finish=False)
            yield from _barrier_wait(thread, state, my_round)
            my_round = state.round_no
            # Push phase: distribute my vertices' rank to their neighbors.
            for vertex in my_vertices:
                neighbors = self.hgraph.neighbors(thread, vertex)
                if neighbors:
                    share = int(
                        self.damping * self.ranks.read(thread, vertex)
                    ) // len(neighbors)
                    for neighbor in neighbors:
                        thread.clock.charge("app.edge", constants.LIGRA_EDGE_CPU_CYCLES)
                        current = self.next_ranks.read(thread, neighbor)
                        self.next_ranks.write(thread, neighbor, current + share)
                yield
            state.arrive(thread.clock.now, 1, finish=False)
            yield from _barrier_wait(thread, state, my_round)
            # Swap phase (thread 0 only, others just synchronize).
            my_round = state.round_no
            if index == 0:
                self.ranks, self.next_ranks = self.next_ranks, self.ranks
            state.arrive(thread.clock.now, 1, finish=False)
            yield from _barrier_wait(thread, state, my_round)

    def run(self, iterations: int = 10) -> RunResult:
        """Run ``iterations`` PageRank rounds."""
        start = self.setup_thread.clock.now
        for thread in self.threads:
            thread.clock.now = max(thread.clock.now, start)
        state = _Rounds(len(self.threads))
        executor = Executor()
        # Each iteration consumes 3 barrier rounds (clear, push, swap).
        for index, thread in enumerate(self.threads):
            executor.add(thread, self._worker(thread, index, state, iterations * 3))
        return executor.run()

    def rank_of(self, thread: SimThread, vertex: int) -> float:
        """Final rank as a float."""
        return self.ranks.read(thread, vertex) / FIXED_ONE


class ParallelComponents:
    """Connected components by min-label propagation over a heap graph.

    Treats edges as undirected (weakly connected components) by
    propagating labels both ways along each directed edge.
    """

    def __init__(
        self,
        heap,
        graph: CSRGraph,
        threads: List[SimThread],
        setup_thread: SimThread = None,
    ) -> None:
        if not threads:
            raise ValueError("at least one thread required")
        self.threads = threads
        self.graph = graph
        main = setup_thread if setup_thread is not None else threads[0]
        self.setup_thread = main
        self.hgraph = HeapGraph(heap, graph, main)
        self.labels = heap.alloc_array(graph.num_vertices)
        for vertex in range(graph.num_vertices):
            self.labels.write(main, vertex, vertex)
        self.rounds = 0

    def _worker(self, thread: SimThread, index: int, state: _Rounds) -> Iterator[None]:
        n = self.graph.num_vertices
        my_vertices = list(range(index, n, len(self.threads)))
        while not state.done:
            my_round = state.round_no
            changed = 0
            for vertex in my_vertices:
                thread.clock.charge("app.vertex", constants.LIGRA_VERTEX_CPU_CYCLES)
                label = self.labels.read(thread, vertex)
                for neighbor in self.hgraph.neighbors(thread, vertex):
                    thread.clock.charge("app.edge", constants.LIGRA_EDGE_CPU_CYCLES)
                    other = self.labels.read(thread, neighbor)
                    if other < label:
                        label = other
                        changed += 1
                    elif label < other:
                        self.labels.write(thread, neighbor, label)
                        changed += 1
                self.labels.write(thread, vertex, label)
                yield
            state.arrive(thread.clock.now, changed, finish=False)
            yield from _barrier_wait(thread, state, my_round)

    def run(self, max_rounds: int = 1000) -> RunResult:
        """Propagate until a fixed point (no label changes in a round)."""
        start = self.setup_thread.clock.now
        for thread in self.threads:
            thread.clock.now = max(thread.clock.now, start)
        state = _Rounds(len(self.threads))
        executor = Executor()
        for index, thread in enumerate(self.threads):
            executor.add(thread, self._worker(thread, index, state))
        result = executor.run()
        self.rounds = state.round_no
        return result

    def label_of(self, thread: SimThread, vertex: int) -> int:
        """Final component label of ``vertex``."""
        return self.labels.read(thread, vertex)

    def component_count(self, thread: SimThread) -> int:
        """Number of distinct components."""
        return len(
            {self.labels.read(thread, v) for v in range(self.graph.num_vertices)}
        )
