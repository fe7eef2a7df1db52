"""Figure 6: extending the application heap with Aquila (paper Section 6.2).

Ligra-style BFS over an R-MAT graph whose heap lives on an mmap-backed
file, with DRAM limited well below the working set:

* (a) cache = heap/8 (the paper's 8 GB for a ~64 GB footprint):
  Aquila 1.56x/2.54x/4.14x faster than mmap at 1/8/16 threads on pmem;
* (b) cache = heap/4 (16 GB): Aquila up to 2.3x over mmap;
* (c) execution-time breakdown (user/system/idle) at 16 threads:
  mmap 61.79% system + 10.61% user vs Aquila 43.82% system + 55.92% user.

DRAM-only (malloc) runs are the reference point.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.setups import make_stack
from repro.common import units
from repro.graph.ligra import ParallelBFS
from repro.graph.mmap_heap import DramHeap, MmapHeap
from repro.graph.rmat import make_rmat_csr
from repro.mmio.vma import MADV_RANDOM
from repro.sim.executor import SimThread

#: Footprint of a graph's heap in pages (offsets + targets + parents).
def heap_pages_for(num_vertices: int, edge_factor: int) -> int:
    """Pages needed for the CSR graph plus the BFS parent array.

    8 bytes per offset/edge/parent entry, rounded up to whole pages with
    a small slack for allocator headers.
    """
    nbytes = 8 * (num_vertices + 1 + num_vertices * edge_factor + num_vertices)
    return units.pages(nbytes) + 8


def run_bfs_config(
    engine_kind: str,
    device_kind: str,
    num_vertices: int,
    num_threads: int,
    cache_fraction: float,
    edge_factor: int = 10,
    seed: int = 42,
) -> Dict:
    """One Figure 6 bar: BFS time + breakdown for one configuration."""
    graph = make_rmat_csr(num_vertices, edge_factor, seed)
    root = graph.largest_out_degree_vertex()
    heap_pages = heap_pages_for(num_vertices, edge_factor)

    setup = SimThread(core=0)
    if engine_kind == "dram":
        heap = DramHeap(capacity_bytes=(heap_pages + 16) * units.PAGE_SIZE)
        stack = None
    else:
        cache_pages = max(32, int(heap_pages * cache_fraction))
        stack = make_stack(engine_kind, device_kind, cache_pages)
        file = stack.allocator.create("ligra-heap", (heap_pages + 16) * units.PAGE_SIZE)
        mapping = stack.engine.mmap(setup, file)
        # Graph traversal is random access: Ligra's conversion maps the
        # heap with MADV_RANDOM (no readahead pollution).
        mapping.madvise(setup, MADV_RANDOM)
        heap = MmapHeap(mapping)

    threads = [SimThread(core=i) for i in range(num_threads)]
    if stack is not None:
        stack.machine.apply_smt_penalty(threads)
    bfs = ParallelBFS(heap, graph, threads, setup_thread=setup)
    result = bfs.run(root)

    breakdown = result.run.merged_breakdown()
    user = breakdown.prefix_total("app")
    idle = breakdown.prefix_total("idle")
    total = breakdown.total()
    system = total - user - idle
    return {
        "engine": engine_kind,
        "device": device_kind,
        "threads": num_threads,
        "execution_cycles": result.makespan_cycles,
        "execution_seconds": units.cycles_to_seconds(result.makespan_cycles),
        "rounds": result.rounds,
        "visited": result.visited,
        "user_pct": 100.0 * user / total if total else 0.0,
        "system_pct": 100.0 * system / total if total else 0.0,
        "idle_pct": 100.0 * idle / total if total else 0.0,
        "faults": stack.engine.faults if stack is not None else 0,
    }


#: The paper's DRAM limits relative to the graph: Ligra's 64 GB footprint
#: is mostly allocation slack; the BFS working set is the 18 GB graph, so
#: 8 GB of DRAM holds ~44% of it and 16 GB ~89%.
CACHE_FRACTION_8GB = 8.0 / 18.0
CACHE_FRACTION_16GB = 16.0 / 18.0


#: Engine/device bars of Figures 6(a)/(b), in display order.
FIG6_CONFIGS = [
    ("linux", "pmem"),
    ("aquila", "pmem"),
    ("linux", "nvme"),
    ("aquila", "nvme"),
    ("dram", "-"),
]


def enumerate_cells(scale: str = "figure") -> List[Dict]:
    """Every Figure 6 bar as an independent sweep work unit.

    Grid: variant (a: cache ~44% of graph, b: ~89%) x engine/device
    combination x thread count.  Figure 6(c)'s breakdown is derived from
    the 16-thread variant-(a) cells, not enumerated separately.
    """
    if scale == "figure":
        counts, vertices = [1, 8, 16], 25000
    else:
        counts, vertices = [1, 8], 4000
    cells = []
    for variant, fraction in (
        ("a", CACHE_FRACTION_8GB),
        ("b", CACHE_FRACTION_16GB),
    ):
        for engine_kind, device_kind in FIG6_CONFIGS:
            label = engine_kind if engine_kind == "dram" else f"{engine_kind}-{device_kind}"
            for threads in counts:
                cells.append(
                    {
                        "cell_id": f"fig6{variant}/{label}/t{threads}",
                        "figure": f"fig6{variant}",
                        "params": {
                            "engine_kind": engine_kind,
                            "device_kind": device_kind,
                            "num_vertices": vertices,
                            "num_threads": threads,
                            "cache_fraction": fraction,
                        },
                    }
                )
    return cells


def run_sweep_cell(params: Dict) -> Dict:
    """Run one enumerated Figure 6 bar; the payload row is its state.

    The payload carries execution cycles, the user/system/idle split
    (Figure 6(c)'s input) and the fault count for the configuration.
    """
    row = run_bfs_config(
        params["engine_kind"],
        params["device_kind"],
        params["num_vertices"],
        params["num_threads"],
        params["cache_fraction"],
    )
    return {"payload": row, "state": row}
