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

The per-stage sections fold the measured phase's cycle ledger (the
runner clock's :class:`~repro.sim.clock.Breakdown`) through the same
stage rules as every cell's telemetry, as Figures 6 and 8 do; the
tracer is left alone, so ``--trace`` changes no figure.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.setups import make_rocksdb
from repro.obs.events import fold_stages
from repro.sim.clock import Breakdown
from repro.sim.executor import Executor
from repro.sim.stats import throughput_ops_per_sec
from repro.workloads.ycsb import YCSBConfig, YCSBDriver


def _sections(breakdown: Breakdown, gets: int) -> Dict[str, float]:
    """Fold the measured phase's cycles into the Figure 7 sections (per get).

    * **device_io** — the ``device_io`` and ``writeback`` stages of
      :func:`~repro.obs.events.fold_stages`: fault reads, explicit-I/O
      device commands and their waits, writeback.
    * **get** — the KV store's own lookup work, charged as ``app.get*``.
    * **cache_mgmt** — everything else the phase spent: cache
      lookups/inserts, eviction/reclaim, syscalls, TLB and lock work.

    ``app.access`` (the raw load/store hit cost) is excluded from every
    section, as in the paper's figure.
    """
    stages = fold_stages(breakdown.as_dict())
    device = stages["device_io"] + stages["writeback"]
    get = breakdown.prefix_total("app.get")
    cache = breakdown.total() - device - get - breakdown.get("app.access")
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
    loader = stack.machine.thread(0)
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

    runner = stack.machine.thread(0)
    # Continue simulated time from the load phase: lock and device
    # timelines are already at the loader's clock.
    runner.clock.now = loader.clock.now
    executor = Executor()
    executor.add(runner, driver.run_workload(runner, operations))

    phase_start = runner.clock.now
    result = executor.run()
    elapsed = result.makespan_cycles - phase_start
    charged = runner.clock.breakdown.total()
    latencies = result.merged_latencies()
    return {
        "mode": mode,
        "sections": _sections(runner.clock.breakdown, operations),
        # Always the charged total.  The key stays only because
        # benchmarks/e2e/cells.json pins every cell's state digest; the
        # next deliberate manifest regeneration drops it.
        "trace_total_cycles": charged,
        "charged_total_cycles": charged,
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
    object) is its state.  Sections are ledger-folded cycles per get."""
    row = run_mode(
        params["mode"],
        params["record_count"],
        params["operations"],
        params["cache_pages"],
    )
    return {"payload": row, "state": row}
