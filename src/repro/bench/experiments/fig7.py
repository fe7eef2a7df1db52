"""Figure 7: RocksDB read-path cycle breakdown (paper Section 6.3).

YCSB-C random reads with the dataset 4x the cache, comparing RocksDB over
explicit I/O (user-space cache + direct pread) against RocksDB over
Aquila.  The paper's numbers (cycles per get):

===========  =========  ==============  ========  =======
Mode         device IO  cache mgmt      get       total
===========  =========  ==============  ========  =======
explicit     4.8 K      45.2 K          15.3 K    65.4 K
Aquila       3.9 K      17.5 K          18.5 K    ~40 K
===========  =========  ==============  ========  =======

Headline: Aquila needs 2.58x fewer cycles for cache management and
delivers ~40% higher throughput.

The per-stage sections are derived from a traced run: every operation of
the measured phase runs under ``repro.obs`` spans, and the exclusive
(self) cycles of the span tree are folded into the figure's three
sections.  The span-derived total is checked against the clock's own
charged total by the benchmark suite (they must agree within 1%).
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.setups import make_rocksdb
from repro.obs import TRACER, CycleAttribution
from repro.sim.executor import Executor, SimThread
from repro.workloads.ycsb import YCSBConfig, YCSBDriver


def _sections_from_trace(att: CycleAttribution, gets: int) -> Dict[str, float]:
    """Fold span self-cycles into the Figure 7 sections (cycles per get).

    * **device_io** — exclusive cycles of the spans that talk to the
      device: fault reads, explicit-I/O device commands, writeback.
    * **get** — the KV store's own lookup work, which the store charges
      as ``app.get*`` directly on the operation span.
    * **cache_mgmt** — everything else the traced ops spent: cache
      lookups/inserts, eviction/reclaim, syscalls, TLB and lock work.

    ``app.access`` (the raw load/store hit cost) is excluded from every
    section, as in the paper's figure.
    """
    device = (
        att.self_prefix_total("fault.io")
        + att.self_prefix_total("io.device")
        + att.self_prefix_total("writeback")
    )
    op_charges = att.charges_of_prefix("op")
    get = sum(
        cycles
        for category, cycles in op_charges.items()
        if category == "app.get" or category.startswith("app.get.")
    )
    excluded = op_charges.get("app.access", 0.0)
    cache = att.total_cycles() - device - get - excluded
    return {
        "device_io": device / gets,
        "cache_mgmt": cache / gets,
        "get": get / gets,
        "total": (device + cache + get) / gets,
    }


def run_mode(
    mode: str,
    record_count: int,
    operations: int,
    cache_pages: int,
    device_kind: str = "pmem",
) -> Dict:
    """Load, compact, then measure a YCSB-C read phase for one mode."""
    db, stack = make_rocksdb(
        mode,
        device_kind=device_kind,
        cache_pages=cache_pages,
        capacity_bytes=1 << 30,
    )
    loader = SimThread(core=0)
    config = YCSBConfig(
        workload="C",
        record_count=record_count,
        operation_count=operations,
        distribution="uniform",
    )
    driver = YCSBDriver(db, config)
    driver.load(loader)
    db.flush(loader)
    db.compact_all(loader)

    runner = SimThread(core=0)
    # Continue simulated time from the load phase: lock and device
    # timelines are already at the loader's clock.
    runner.clock.now = loader.clock.now
    executor = Executor()
    executor.add(runner, driver.run_workload(runner, operations))

    # Trace the measured phase.  If a caller (e.g. the CLI's --trace)
    # already enabled tracing, keep its settings and window on a mark;
    # otherwise trace just this phase.
    was_enabled = TRACER.enabled
    if not was_enabled:
        TRACER.enable()
    mark = TRACER.mark()
    phase_start = runner.clock.now
    result = executor.run()
    elapsed = result.makespan_cycles - phase_start
    att = CycleAttribution.from_tracer(TRACER, since=mark)
    if not was_enabled:
        TRACER.disable()

    sections = _sections_from_trace(att, operations)
    latencies = result.merged_latencies()
    from repro.sim.stats import throughput_ops_per_sec

    return {
        "mode": mode,
        "sections": sections,
        "trace_total_cycles": att.total_cycles(),
        "charged_total_cycles": runner.clock.breakdown.total(),
        "throughput": throughput_ops_per_sec(result.total_ops, elapsed),
        "mean_latency_cycles": latencies.mean(),
        "p999_cycles": latencies.p999(),
        "not_found": driver.stats.not_found,
        "db_stats": db.stats(),
    }


def enumerate_cells(scale: str = "figure") -> List[Dict]:
    """Figure 7's two bars (explicit I/O, Aquila) as sweep work units.

    The cache-management ratio and throughput gain are computed by the
    report from the two cells jointly, so each mode stays an independent,
    restartable unit.
    """
    if scale == "figure":
        records, operations, cache_pages = 16384, 2000, 1024
    else:
        records, operations, cache_pages = 4096, 500, 256
    return [
        {
            "cell_id": f"fig7/{mode}",
            "figure": "fig7",
            "params": {
                "mode": mode,
                "record_count": records,
                "operations": operations,
                "cache_pages": cache_pages,
            },
        }
        for mode in ("direct", "aquila")
    ]


def run_sweep_cell(params: Dict) -> Dict:
    """Run one enumerated Figure 7 mode; the payload (sans raw db stats
    object) is its state.  Sections are trace-derived cycles per get."""
    row = run_mode(
        params["mode"],
        params["record_count"],
        params["operations"],
        params["cache_pages"],
    )
    return {"payload": row, "state": row}
