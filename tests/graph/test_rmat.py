"""R-MAT generation and CSR structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.rmat import EDGE_BLOCK, CSRGraph, generate_rmat_edges, make_rmat_csr


class TestGeneration:
    def test_edge_count(self):
        edges = generate_rmat_edges(100, 1000, seed=1)
        assert len(edges) == 1000

    def test_vertices_in_range(self):
        edges = generate_rmat_edges(100, 1000, seed=1)
        for src, dst in edges:
            assert 0 <= src < 100
            assert 0 <= dst < 100

    def test_deterministic(self):
        assert generate_rmat_edges(50, 200, seed=7) == generate_rmat_edges(50, 200, seed=7)
        assert generate_rmat_edges(50, 200, seed=7) != generate_rmat_edges(50, 200, seed=8)

    def test_skewed_degree_distribution(self):
        """R-MAT produces heavy-tailed out-degrees (unlike uniform)."""
        graph = make_rmat_csr(1000, edge_factor=10, seed=3)
        degrees = sorted((graph.out_degree(v) for v in range(1000)), reverse=True)
        top_share = sum(degrees[:50]) / max(1, sum(degrees))
        assert top_share > 0.2, "top 5% of vertices should own >20% of edges"

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            generate_rmat_edges(0, 10)


class TestCSR:
    def test_structure(self):
        edges = [(0, 1), (0, 2), (1, 2), (2, 0)]
        graph = CSRGraph(3, edges)
        assert graph.num_edges == 4
        assert sorted(graph.neighbors(0)) == [1, 2]
        assert graph.neighbors(1) == [2]
        assert graph.out_degree(2) == 1

    def test_offsets_monotone(self):
        graph = make_rmat_csr(200, 10, seed=2)
        for v in range(200):
            assert graph.offsets[v] <= graph.offsets[v + 1]
        assert graph.offsets[-1] == graph.num_edges

    def test_largest_degree_vertex(self):
        edges = [(5, i) for i in range(10)] + [(0, 1)]
        graph = CSRGraph(11, edges)
        assert graph.largest_out_degree_vertex() == 5

    @settings(max_examples=20)
    @given(st.integers(2, 60), st.integers(0, 300))
    def test_edges_conserved(self, vertices, num_edges):
        edges = generate_rmat_edges(vertices, num_edges, seed=11)
        graph = CSRGraph(vertices, edges)
        rebuilt = [
            (v, n) for v in range(vertices) for n in graph.neighbors(v)
        ]
        assert sorted(rebuilt) == sorted(edges)


# -- oracle: the per-draw generator and the list-based CSR construction -------


def _reference_edges(num_vertices, num_edges, seed=42, a=0.57, b=0.19, c=0.19):
    """One ``random()`` draw per recursion level, edge after edge."""
    scale = max(1, (num_vertices - 1).bit_length())
    rng = random.Random(seed)
    edges = []
    for _ in range(num_edges):
        src = dst = 0
        for _ in range(scale):
            r = rng.random()
            if r < a:
                quadrant = (0, 0)
            elif r < a + b:
                quadrant = (0, 1)
            elif r < a + b + c:
                quadrant = (1, 0)
            else:
                quadrant = (1, 1)
            src = (src << 1) | quadrant[0]
            dst = (dst << 1) | quadrant[1]
        edges.append((src % num_vertices, dst % num_vertices))
    return edges


def _reference_csr(num_vertices, edges):
    """``(offsets, targets, root)`` by counting and placing edge by edge."""
    degree = [0] * num_vertices
    for src, _ in edges:
        degree[src] += 1
    offsets = [0] * (num_vertices + 1)
    for v in range(num_vertices):
        offsets[v + 1] = offsets[v] + degree[v]
    targets = [0] * len(edges)
    cursor = list(offsets[:-1])
    for src, dst in edges:
        targets[cursor[src]] = dst
        cursor[src] += 1
    best, best_deg = 0, -1
    for v in range(num_vertices):
        if degree[v] > best_deg:
            best, best_deg = v, degree[v]
    return offsets, targets, best


def _assert_matches_reference(num_vertices, edge_factor, seed):
    num_edges = edge_factor * num_vertices
    edges = _reference_edges(num_vertices, num_edges, seed)
    assert generate_rmat_edges(num_vertices, num_edges, seed) == edges
    offsets, targets, root = _reference_csr(num_vertices, edges)
    for graph in (CSRGraph(num_vertices, edges), make_rmat_csr(num_vertices, edge_factor, seed)):
        assert graph.num_edges == num_edges
        assert graph.offsets.tolist() == offsets
        assert graph.targets.tolist() == targets
        assert graph.largest_out_degree_vertex() == root


class TestReferenceOracle:
    """The array generator and CSR construction equal the per-draw definition."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("num_vertices", [1, 2, 1000])
    def test_small_graphs(self, seed, num_vertices):
        _assert_matches_reference(num_vertices, 10, seed)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_figure_scale_vertex_count(self, seed):
        # 25000 vertices take 15 recursion levels, as the figure cells do;
        # two edges per vertex span several draw blocks.
        _assert_matches_reference(25000, 2, seed)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_no_edges(self, seed):
        _assert_matches_reference(5, 0, seed)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_edge_count_not_a_block_multiple(self, seed):
        num_edges = 2 * EDGE_BLOCK + 37
        assert generate_rmat_edges(700, num_edges, seed) == _reference_edges(
            700, num_edges, seed
        )

    def test_accessors_return_python_ints(self):
        graph = make_rmat_csr(100, 5, seed=1)
        root = graph.largest_out_degree_vertex()
        assert type(root) is int and type(graph.out_degree(root)) is int
        assert all(type(n) is int for n in graph.neighbors(root))
