"""Graph processing: R-MAT generation, mmap-backed heaps and Ligra-style BFS."""

from repro.graph.ligra import UNVISITED, BFSResult, HeapGraph, ParallelBFS
from repro.graph.mmap_heap import DramHeap, HeapArray, MmapHeap
from repro.graph.rmat import CSRGraph, generate_rmat_edges, make_rmat_csr

__all__ = [
    "UNVISITED",
    "BFSResult",
    "HeapGraph",
    "ParallelBFS",
    "DramHeap",
    "HeapArray",
    "MmapHeap",
    "CSRGraph",
    "generate_rmat_edges",
    "make_rmat_csr",
]
