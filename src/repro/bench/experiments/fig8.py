"""Figure 8: page-fault overhead breakdowns (paper Section 6.4).

(a) average fault cost, pmem, in-memory dataset — Linux vs Aquila;
(b) average fault cost with evictions in the common path (8 GB cache,
    100 GB dataset) — Linux vs Aquila;
(c) Aquila fault cost under each device-access path: Cache-Hit, DAX-pmem,
    HOST-pmem, SPDK-NVMe, HOST-NVMe.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.setups import make_aquila_stack, make_stack
from repro.common import units
from repro.mmio.vma import MADV_RANDOM
from repro.obs import DEFAULT_CYCLE_BUCKETS, METRICS
from repro.sim.executor import SimThread
from repro.workloads.microbench import MicrobenchConfig, run_microbench

#: Breakdown categories surfaced per figure row (prefix -> display name).
BREAKDOWN_PREFIXES = [
    ("fault.trap", "trap/exception"),
    ("fault.vma_lookup", "vma lookup"),
    ("fault.pcache_lookup", "page-cache lookup"),
    ("cache.hash.lookup", "hash lookup"),
    ("fault.io", "device I/O"),
    ("idle.io", "device wait"),
    ("idle.fault.io", "device wait (blocked)"),
    ("fault.pte_install", "pte install"),
    ("fault.lru", "lru"),
    ("cache.freelist", "freelist"),
    ("cache.hash.insert", "hash insert"),
    ("fault.pcache_insert", "page-cache insert"),
    ("fault.page_alloc", "page alloc"),
    ("reclaim", "reclaim"),
    ("evict", "evict select"),
    ("tlb.shootdown", "tlb shootdown"),
    ("writeback", "writeback"),
    ("fault.misc", "misc"),
]


def _per_fault_breakdown(result, faults: int) -> Dict[str, float]:
    merged = result.merged_breakdown()
    out: Dict[str, float] = {}
    for prefix, label in BREAKDOWN_PREFIXES:
        cycles = merged.prefix_total(prefix)
        if cycles > 0 and faults > 0:
            out[label] = cycles / faults
    return out


def run_fault_benchmark(
    engine_kind: str,
    dataset_pages: int,
    cache_pages: int,
    accesses: int,
    device_kind: str = "pmem",
    io_path: Optional[str] = None,
    touch_once: bool = True,
    write_fraction: float = 0.0,
) -> Dict:
    """Single-thread microbenchmark run; returns mean fault cost + breakdown."""
    options = {} if io_path is None else {"io_path": io_path}
    stack = make_stack(engine_kind, device_kind, cache_pages, **options)
    file = stack.allocator.create("mb-data", dataset_pages * units.PAGE_SIZE)
    config = MicrobenchConfig(
        num_threads=1,
        accesses_per_thread=accesses,
        touch_once=touch_once,
        shared_file=True,
        write_fraction=write_fraction,
    )
    result = run_microbench(stack.engine, file, config)
    latencies = result.merged_latencies()
    steady_mean = latencies.tail_mean(0.5)   # order-safe: sorts use a cached view
    if METRICS.enabled:
        hist = METRICS.histogram(
            f"latency.fault.{stack.engine.name}.{device_kind}",
            buckets=DEFAULT_CYCLE_BUCKETS,
        )
        hist.observe_many(latencies.samples())
    faults = stack.engine.faults
    return {
        "engine": stack.engine.name,
        "device": device_kind,
        "mean_access_cycles": latencies.mean(),
        "steady_mean_cycles": steady_mean,
        "p99_cycles": latencies.p99(),
        "faults": faults,
        "accesses": latencies.count,
        "breakdown": _per_fault_breakdown(result, max(1, latencies.count)),
        "stack": stack,
        "_result": result,
    }


def in_memory_pages(accesses: int) -> Tuple[int, int]:
    """(dataset, cache) pages of the in-memory cells, Figs 8(a) and 8(c).

    Touch-once over ``accesses`` pages plus slack, with a cache larger
    than the dataset, so no cell ever evicts.
    """
    dataset = accesses + 64
    return dataset, dataset + 64


def run_cache_hit(accesses: int) -> float:
    """Faults that find the page already in the DRAM cache.

    Touch every page (populating the cache), unmap, remap, touch again:
    the second pass faults but needs no I/O.
    """
    dataset, cache_pages = in_memory_pages(accesses)
    stack = make_aquila_stack("pmem", cache_pages=cache_pages, io_path="dax")
    file = stack.allocator.create("hit-data", dataset * units.PAGE_SIZE)
    thread = SimThread(core=0)
    mapping = stack.engine.mmap(thread, file)
    mapping.madvise(thread, MADV_RANDOM)
    for page in range(dataset):
        mapping.load(thread, page * units.PAGE_SIZE, 8)
    mapping.munmap(thread)

    mapping2 = stack.engine.mmap(thread, file)
    mapping2.madvise(thread, MADV_RANDOM)
    before_faults = stack.engine.faults
    start = thread.clock.now
    count = 0
    for page in range(0, dataset, 2):   # random-ish stride, all cache hits
        mapping2.load(thread, page * units.PAGE_SIZE, 8)
        count += 1
    elapsed = thread.clock.now - start
    faults = stack.engine.faults - before_faults
    assert faults == count, "cache-hit pass should fault on every page"
    return elapsed / count


#: Figure 8(c) device-access paths as (label, device_kind, io_path) rows.
FIG8C_PATHS = [
    ("DAX-pmem", "pmem", "dax"),
    ("HOST-pmem", "pmem", "host"),
    ("SPDK-NVMe", "nvme", "spdk"),
    ("HOST-NVMe", "nvme", "host"),
]


def enumerate_cells(scale: str = "figure") -> List[Dict]:
    """Every Figure 8 bar as an independent sweep work unit.

    Variants: (a) in-memory fault cost (linux/aquila), (b) eviction-path
    fault cost (linux/aquila), (c) one cell per Aquila device-access path
    plus the Cache-Hit cell.  ``scale="bench"`` shrinks access counts.
    """
    accesses_a = 800 if scale == "figure" else 200
    accesses_c = 600 if scale == "figure" else 150
    cache_b = 512 if scale == "figure" else 128
    cells = []
    for engine in ("linux", "aquila"):
        cells.append(
            {
                "cell_id": f"fig8a/{engine}",
                "figure": "fig8a",
                "params": {
                    "variant": "a",
                    "engine_kind": engine,
                    "accesses": accesses_a,
                },
            }
        )
        cells.append(
            {
                "cell_id": f"fig8b/{engine}",
                "figure": "fig8b",
                "params": {
                    "variant": "b",
                    "engine_kind": engine,
                    "cache_pages": cache_b,
                },
            }
        )
    for label, device_kind, io_path in FIG8C_PATHS:
        cells.append(
            {
                "cell_id": f"fig8c/{label}",
                "figure": "fig8c",
                "params": {
                    "variant": "c",
                    "label": label,
                    "device_kind": device_kind,
                    "io_path": io_path,
                    "accesses": accesses_c,
                },
            }
        )
    cells.append(
        {
            "cell_id": "fig8c/Cache-Hit",
            "figure": "fig8c",
            "params": {"variant": "hit", "accesses": accesses_c},
        }
    )
    return cells


def run_sweep_cell(params: Dict) -> Dict:
    """Run one enumerated Figure 8 cell; payload plus full-state digest.

    Variants (a), (b) and (c) run the fault microbenchmark and digest the
    complete end state with the PR 3 conformance machinery; the Cache-Hit
    variant reports its mean fault cost (its payload is its state).
    """
    from repro.sim.conformance import mmio_state_digest

    variant = params["variant"]
    if variant == "hit":
        mean = run_cache_hit(params["accesses"])
        payload = {"label": "Cache-Hit", "mean_access_cycles": mean}
        return {"payload": payload, "state": payload}
    if variant == "a":
        accesses = params["accesses"]
        outcome = run_fault_benchmark(
            params["engine_kind"], *in_memory_pages(accesses), accesses
        )
    elif variant == "b":
        # The paper's 8 GB : 100 GB cache:dataset ratio; the run is long
        # enough that its second half is in eviction steady state, which
        # ``steady_mean_cycles`` reports.
        cache_pages = params["cache_pages"]
        outcome = run_fault_benchmark(
            params["engine_kind"],
            cache_pages * 100 // 8,
            cache_pages,
            cache_pages * 3,
            touch_once=False,
        )
    else:
        accesses = params["accesses"]
        outcome = run_fault_benchmark(
            "aquila",
            *in_memory_pages(accesses),
            accesses,
            device_kind=params["device_kind"],
            io_path=params["io_path"],
        )
        outcome["label"] = params["label"]
    stack = outcome.pop("stack")
    result = outcome.pop("_result")
    return {"payload": outcome, "state": mmio_state_digest(stack, result)}
