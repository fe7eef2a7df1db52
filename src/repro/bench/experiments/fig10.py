"""Figure 10: scalability of Aquila vs Linux mmap (paper Section 6.5).

Random reads with 1..32 threads in four configurations:

* (a) dataset fits in memory — shared file / private file per thread;
* (b) dataset 12.5x the cache — shared file / private file per thread.

The paper's profiling finding: with a shared file, Linux serializes on
the single per-inode tree lock (and on mmap_sem), so Aquila's lock-free
hash gains grow with threads (up to 12.92x); with private files the locks
don't contend and the win is the per-fault cost gap (~2x).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.setups import make_aquila_stack, make_linux_stack
from repro.common import units
from repro.workloads.microbench import MicrobenchConfig, run_microbench

DEFAULT_THREAD_COUNTS = [1, 2, 4, 8, 16, 32]

#: Default per-figure access budget.  40x the original 4096 (10x from the
#: batched scheduler, another 4x from the analytic fast-forward): figure
#: runs default to fast-forward mode, which retires in-memory re-access
#: tails in closed form, so figure-scale runs stay fast while stepping
#: further toward the paper's full-scale access counts.
DEFAULT_TOTAL_ACCESSES = 163840


def size_fig10_cell(
    num_threads: int,
    shared_file: bool,
    in_memory: bool,
    cache_pages: int,
    total_accesses: int,
) -> Dict:
    """Pure sizing arithmetic for one Figure 10 cell.

    Device capacity is sized from the bytes the cell *actually allocates*:
    private mode splits the dataset across per-thread files (with a 64-page
    floor), so capacity must scale with ``per_file_pages * num_threads``,
    not with ``dataset_pages * num_threads`` — the latter overflows the
    pmem capacity defaults at batched figure scales.

    ``accesses_per_thread`` is no longer capped at the thread's partition
    share: the microbenchmark's touch-once plan re-accesses owned pages
    once the partition is exhausted (pure cache hits in-memory), which is
    the regime the batched fast path accelerates.
    """
    if in_memory:
        dataset_pages = cache_pages            # 100 GB data / 100 GB DRAM
        touch_once = True
    else:
        dataset_pages = cache_pages * 100 // 8  # 100 GB data / 8 GB DRAM
        touch_once = False
    if shared_file:
        per_file_pages = dataset_pages
        num_files = 1
    else:
        # The dataset total is fixed; private mode splits it across files.
        per_file_pages = max(64, dataset_pages // num_threads)
        num_files = num_threads
    file_bytes = per_file_pages * num_files * units.PAGE_SIZE
    return {
        "dataset_pages": dataset_pages,
        "per_file_pages": per_file_pages,
        "num_files": num_files,
        "capacity_bytes": max(512 * units.MIB, 2 * file_bytes),
        "accesses_per_thread": max(8, total_accesses // num_threads),
        "touch_once": touch_once,
    }


def _run_config_with_stack(
    engine_kind: str,
    num_threads: int,
    shared_file: bool,
    in_memory: bool,
    cache_pages: int = 2048,
    total_accesses: int = DEFAULT_TOTAL_ACCESSES,
    device_kind: str = "pmem",
    batched: bool = True,
    fastforward: bool = True,
):
    """One Figure 10 cell; returns ``(row, stack, result)`` for digesting."""
    sizing = size_fig10_cell(
        num_threads, shared_file, in_memory, cache_pages, total_accesses
    )
    capacity = sizing["capacity_bytes"]
    if engine_kind == "linux":
        stack = make_linux_stack(device_kind, cache_pages, capacity_bytes=capacity)
    else:
        stack = make_aquila_stack(device_kind, cache_pages, capacity_bytes=capacity)

    if shared_file:
        files = stack.allocator.create(
            "shared", sizing["dataset_pages"] * units.PAGE_SIZE
        )
    else:
        files = [
            stack.allocator.create(
                f"private-{i}", sizing["per_file_pages"] * units.PAGE_SIZE
            )
            for i in range(num_threads)
        ]
    config = MicrobenchConfig(
        num_threads=num_threads,
        accesses_per_thread=sizing["accesses_per_thread"],
        touch_once=sizing["touch_once"],
        shared_file=shared_file,
        batched=batched,
        fastforward=fastforward,
    )
    result = run_microbench(stack.engine, files, config)
    latencies = result.merged_latencies()
    row = {
        "engine": stack.engine.name,
        "threads": num_threads,
        "throughput": result.throughput_ops_per_sec(),
        "ops": result.total_ops,
        "makespan_cycles": result.makespan_cycles,
        "mean_latency_cycles": latencies.mean(),
        "p99_cycles": latencies.p99(),
        "p999_cycles": latencies.p999(),
    }
    return row, stack, result


def run_config(
    engine_kind: str,
    num_threads: int,
    shared_file: bool,
    in_memory: bool,
    cache_pages: int = 2048,
    total_accesses: int = DEFAULT_TOTAL_ACCESSES,
    device_kind: str = "pmem",
    batched: bool = True,
    fastforward: bool = True,
) -> Dict:
    """One (engine, threads, sharing, fit) cell of Figure 10."""
    row, _, _ = _run_config_with_stack(
        engine_kind,
        num_threads,
        shared_file,
        in_memory,
        cache_pages,
        total_accesses,
        device_kind,
        batched,
        fastforward,
    )
    return row


def run_sweep(
    shared_file: bool,
    in_memory: bool,
    thread_counts: Optional[List[int]] = None,
    cache_pages: int = 2048,
    total_accesses: int = DEFAULT_TOTAL_ACCESSES,
) -> List[Dict]:
    """Linux and Aquila across thread counts for one configuration."""
    counts = thread_counts if thread_counts is not None else DEFAULT_THREAD_COUNTS
    rows = []
    for threads in counts:
        linux = run_config(
            "linux", threads, shared_file, in_memory, cache_pages, total_accesses
        )
        aquila = run_config(
            "aquila", threads, shared_file, in_memory, cache_pages, total_accesses
        )
        rows.append(
            {
                "threads": threads,
                "linux": linux,
                "aquila": aquila,
                "speedup": aquila["throughput"] / max(linux["throughput"], 1e-9),
            }
        )
    return rows


def run_fig10a(thread_counts: Optional[List[int]] = None, cache_pages: int = 2048) -> Dict:
    """In-memory dataset: shared and private file sweeps."""
    return {
        "shared": run_sweep(True, True, thread_counts, cache_pages),
        "private": run_sweep(False, True, thread_counts, cache_pages),
    }


def run_fig10b(thread_counts: Optional[List[int]] = None, cache_pages: int = 1024) -> Dict:
    """Out-of-memory dataset: shared and private file sweeps."""
    return {
        "shared": run_sweep(True, False, thread_counts, cache_pages),
        "private": run_sweep(False, False, thread_counts, cache_pages),
    }


def enumerate_cells(scale: str = "figure") -> List[Dict]:
    """Every Figure 10 cell as an independent sweep work unit.

    Grid: variant (a: in-memory, b: out-of-memory) x shared/private file
    x engine (linux, aquila) x thread count.  ``scale="figure"`` uses the
    figure defaults (40960 accesses, 1-32 threads); ``scale="bench"``
    shrinks the access budget and thread grid for tests and CI.  Params
    fully determine the run — the cell's config digest is a pure function
    of this dict.
    """
    if scale == "figure":
        counts, total = DEFAULT_THREAD_COUNTS, DEFAULT_TOTAL_ACCESSES
    else:
        counts, total = [1, 4, 16], 4096
    cells = []
    for variant, in_memory, cache_pages in (("a", True, 2048), ("b", False, 1024)):
        for shared in (True, False):
            sharing = "shared" if shared else "private"
            for engine_kind in ("linux", "aquila"):
                for threads in counts:
                    cells.append(
                        {
                            "cell_id": f"fig10{variant}/{sharing}/{engine_kind}/t{threads}",
                            "figure": f"fig10{variant}",
                            "params": {
                                "engine_kind": engine_kind,
                                "num_threads": threads,
                                "shared_file": shared,
                                "in_memory": in_memory,
                                "cache_pages": cache_pages,
                                "total_accesses": total,
                            },
                        }
                    )
    return cells


def run_sweep_cell(params: Dict) -> Dict:
    """Run one enumerated cell; returns its payload and full-state digest.

    The state digest is the PR 3 conformance structure (thread clocks and
    latency streams, page table, TLBs, cache page checksums, device
    bytes, engine counters), so sharded and serial sweeps can be compared
    bit for bit — Figure 10 is the sweep's correctness-oracle grid.
    """
    from repro.sim.conformance import mmio_state_digest

    row, stack, result = _run_config_with_stack(**params)
    return {"payload": row, "state": mmio_state_digest(stack, result)}
