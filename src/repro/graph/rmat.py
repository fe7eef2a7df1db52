"""R-MAT recursive graph generator (Chakrabarti et al., cited by the paper).

The paper's Ligra experiment (Section 6.2): "we generate a R-Mat graph of
100M vertices, with the number of directed edges set to 10x the number of
vertices", producing a read-mostly random access pattern under BFS.

Standard R-MAT parameters (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) — the
Graph500 values — yield the heavy-tailed degree distribution that makes
frontier sizes swing the way real social graphs do.

Generation runs in numpy on the stream of ``random.Random(seed)``: the
Mersenne Twister state is copied into a ``RandomState``, whose
``random_sample`` yields the same doubles as ``random()``.  Each edge
consumes ``scale`` draws, one per recursion level, in edge order, so the
edge list is the one the per-draw definition gives, bit for bit.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np

#: Edges generated per block of draws (bounds the generator's peak memory).
EDGE_BLOCK = 1 << 15


def rmat_arrays(
    num_vertices: int,
    num_edges: int,
    seed: int = 42,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` int64 arrays of an R-MAT graph's directed edges.

    Level by level, a draw ``r`` picks quadrant (0, 0) if ``r < a``,
    (0, 1) if ``r < a + b``, (1, 0) if ``r < a + b + c`` and (1, 1)
    otherwise; the quadrant's bits append to the source and target.
    """
    if num_vertices <= 0 or num_edges < 0:
        raise ValueError("graph dimensions must be positive")
    scale = max(1, (num_vertices - 1).bit_length())
    state = random.Random(seed).getstate()[1]
    rng = np.random.RandomState()
    rng.set_state(("MT19937", np.array(state[:-1], dtype=np.uint32), state[-1]))
    # The thresholds as the per-draw comparisons see them: Python floats.
    to_01, to_10, to_11 = a, a + b, a + b + c
    weights = np.left_shift(1, np.arange(scale - 1, -1, -1, dtype=np.int64))
    src = np.empty(num_edges, dtype=np.int64)
    dst = np.empty(num_edges, dtype=np.int64)
    for start in range(0, num_edges, EDGE_BLOCK):
        count = min(EDGE_BLOCK, num_edges - start)
        draws = rng.random_sample(count * scale).reshape(count, scale)
        src_bits = draws >= to_10
        dst_bits = (draws >= to_01) & ((draws < to_10) | (draws >= to_11))
        src[start : start + count] = src_bits @ weights
        dst[start : start + count] = dst_bits @ weights
    return src % num_vertices, dst % num_vertices


def generate_rmat_edges(
    num_vertices: int,
    num_edges: int,
    seed: int = 42,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> List[Tuple[int, int]]:
    """Directed edge list of an R-MAT graph (duplicates allowed, like R-MAT)."""
    src, dst = rmat_arrays(num_vertices, num_edges, seed, a, b, c)
    return list(zip(src.tolist(), dst.tolist()))


class CSRGraph:
    """Compressed sparse row adjacency: offsets + edge targets.

    ``edges`` is a sequence of ``(src, dst)`` pairs or an ``(m, 2)``
    array.  ``offsets`` and ``targets`` are int64 arrays; each vertex's
    targets keep the order its edges were listed in.
    """

    def __init__(self, num_vertices: int, edges: Sequence[Tuple[int, int]]) -> None:
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        self.num_vertices = num_vertices
        self.num_edges = len(pairs)
        self.offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=self.offsets[1:])
        self.targets = dst[np.argsort(src, kind="stable")]

    def out_degree(self, vertex: int) -> int:
        """Out-degree of ``vertex``."""
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    def neighbors(self, vertex: int) -> List[int]:
        """Out-neighbors of ``vertex``."""
        return self.targets[self.offsets[vertex] : self.offsets[vertex + 1]].tolist()

    def largest_out_degree_vertex(self) -> int:
        """A good BFS root: the highest-out-degree vertex (lowest id on ties)."""
        return int(np.argmax(np.diff(self.offsets)))


def make_rmat_csr(num_vertices: int, edge_factor: int = 10, seed: int = 42) -> CSRGraph:
    """Convenience: R-MAT CSR with ``edge_factor`` edges per vertex."""
    src, dst = rmat_arrays(num_vertices, num_vertices * edge_factor, seed)
    return CSRGraph(num_vertices, np.column_stack((src, dst)))
