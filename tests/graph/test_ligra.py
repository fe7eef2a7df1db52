"""Parallel BFS: correctness against a networkx reference, across heaps."""

import networkx as nx
import pytest

from repro.bench.setups import make_aquila_stack, make_linux_stack
from repro.common import units
from repro.graph.ligra import UNVISITED, ParallelBFS
from repro.graph.mmap_heap import DramHeap, MmapHeap
from repro.graph.rmat import CSRGraph, make_rmat_csr
from repro.sim.executor import SimThread


def _reference_bfs(graph: CSRGraph, root: int):
    """Distances via networkx on the same edge set."""
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    for v in range(graph.num_vertices):
        for n in graph.neighbors(v):
            g.add_edge(v, n)
    return nx.single_source_shortest_path_length(g, root)


def _run_bfs(graph, heap, threads, setup=None):
    bfs = ParallelBFS(heap, graph, threads, setup_thread=setup)
    result = bfs.run(graph.largest_out_degree_vertex())
    return bfs, result


class TestCorrectness:
    @pytest.mark.parametrize("num_threads", [1, 3, 8])
    def test_matches_networkx_reachability(self, num_threads):
        graph = make_rmat_csr(600, 8, seed=5)
        root = graph.largest_out_degree_vertex()
        reference = _reference_bfs(graph, root)
        heap = DramHeap(16 * units.MIB)
        threads = [SimThread(core=i, tid=i) for i in range(num_threads)]
        bfs, result = _run_bfs(graph, heap, threads)
        assert result.visited == len(reference)
        probe = SimThread(core=0, tid=len(threads))
        for vertex in range(graph.num_vertices):
            reached = bfs.parent_of(probe, vertex) != UNVISITED
            assert reached == (vertex in reference), vertex

    def test_parents_form_valid_tree(self):
        graph = make_rmat_csr(400, 8, seed=9)
        root = graph.largest_out_degree_vertex()
        heap = DramHeap(16 * units.MIB)
        threads = [SimThread(core=i, tid=i) for i in range(4)]
        bfs, _ = _run_bfs(graph, heap, threads)
        probe = SimThread(core=0, tid=len(threads))
        for vertex in range(graph.num_vertices):
            parent = bfs.parent_of(probe, vertex)
            if parent == UNVISITED or vertex == root:
                continue
            # Parent must actually have an edge to the child.
            assert vertex in graph.neighbors(parent)

    def test_rounds_equal_eccentricity(self):
        graph = make_rmat_csr(500, 8, seed=4)
        root = graph.largest_out_degree_vertex()
        reference = _reference_bfs(graph, root)
        heap = DramHeap(16 * units.MIB)
        bfs, result = _run_bfs(graph, heap, [SimThread(core=0, tid=0)])
        assert result.rounds == max(reference.values()) + 1

    def test_identical_across_heaps_and_engines(self):
        graph = make_rmat_csr(400, 8, seed=2)
        visited = set()
        for kind in ("dram", "aquila", "linux"):
            if kind == "dram":
                heap = DramHeap(16 * units.MIB)
                setup = None
            else:
                maker = make_aquila_stack if kind == "aquila" else make_linux_stack
                stack = maker("pmem", cache_pages=32, capacity_bytes=64 * units.MIB)
                file = stack.allocator.create("h", 4 * units.MIB)
                setup = SimThread(core=0, tid=0)
                heap = MmapHeap(stack.engine.mmap(setup, file))
            threads = [SimThread(core=i, tid=1 + i) for i in range(4)]
            _, result = _run_bfs(graph, heap, threads, setup=setup)
            visited.add(result.visited)
        assert len(visited) == 1, "all substrates must agree on reachability"


class TestExecutionModel:
    def test_more_threads_not_slower_in_dram(self):
        graph = make_rmat_csr(1200, 10, seed=6)
        times = {}
        for n in (1, 8):
            heap = DramHeap(32 * units.MIB)
            threads = [SimThread(core=i, tid=i) for i in range(n)]
            _, result = _run_bfs(graph, heap, threads)
            times[n] = result.makespan_cycles
        assert times[8] < times[1]

    def test_barrier_idle_recorded(self):
        graph = make_rmat_csr(500, 8, seed=3)
        heap = DramHeap(16 * units.MIB)
        threads = [SimThread(core=i, tid=i) for i in range(8)]
        _, result = _run_bfs(graph, heap, threads)
        assert result.run.merged_breakdown().prefix_total("idle.barrier") > 0

    def test_setup_excluded_from_execution_time(self):
        graph = make_rmat_csr(300, 8, seed=1)
        stack = make_aquila_stack("pmem", cache_pages=256, capacity_bytes=64 * units.MIB)
        file = stack.allocator.create("h", 4 * units.MIB)
        setup = stack.machine.thread(0)
        heap = MmapHeap(stack.engine.mmap(setup, file))
        threads = [stack.machine.thread(i) for i in range(2)]
        bfs, result = _run_bfs(graph, heap, threads, setup=setup)
        assert result.start_cycles > 0
        assert result.makespan_cycles < result.run.makespan_cycles
