"""Figure 9: Kreon over kmmap vs Kreon over Aquila (paper Section 6.4).

All six YCSB workloads, single thread, dataset 2x the DRAM cache
(paper: 16 GB records / 8 GB cache).  Paper claims:

* NVMe: ~1.02x throughput (device-bound), 1.29x lower average latency,
  3.78x lower p99.9;
* pmem: 1.22x throughput, 1.43x lower average latency, 13.72x lower p99.9.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.setups import make_kreon
from repro.common import units
from repro.sim.executor import Executor
from repro.sim.stats import throughput_ops_per_sec
from repro.workloads.ycsb import YCSBConfig, YCSBDriver

ALL_WORKLOADS = ["A", "B", "C", "D", "E", "F"]


def run_cell(
    engine_kind: str,
    device_kind: str,
    workload: str,
    record_count: int,
    cache_pages: int,
    operations: int,
) -> Dict:
    """One (engine, device, workload) cell of Figure 9."""
    store, stack, setup_thread = make_kreon(
        engine_kind,
        device_kind=device_kind,
        cache_pages=cache_pages,
        volume_bytes=64 * units.MIB,
        capacity_bytes=256 * units.MIB,
        l0_max_entries=1024,
    )
    config = YCSBConfig(
        workload=workload,
        record_count=record_count,
        operation_count=operations,
        value_bytes=1024,
    )
    driver = YCSBDriver(store, config)
    driver.load(setup_thread)
    store.spill(setup_thread)
    store.msync(setup_thread)

    runner = stack.machine.thread(0)
    runner.clock.now = setup_thread.clock.now
    phase_start = runner.clock.now
    executor = Executor()
    executor.add(runner, driver.run_workload(runner, operations))
    result = executor.run()
    latencies = result.merged_latencies()
    return {
        "engine": engine_kind,
        "device": device_kind,
        "workload": workload,
        "throughput": throughput_ops_per_sec(
            result.total_ops, result.makespan_cycles - phase_start
        ),
        "mean_latency_cycles": latencies.mean(),
        "p999_cycles": latencies.p999(),
        "not_found": driver.stats.not_found,
        "store_stats": store.stats(),
    }


def enumerate_cells(scale: str = "figure") -> List[Dict]:
    """Every Figure 9 cell as an independent sweep work unit.

    Grid: device (nvme, pmem) x YCSB workload (A-F) x engine (kmmap,
    aquila).  Ratios are joins computed by the report, so each engine run
    is its own restartable unit.
    """
    if scale == "figure":
        records, cache_pages, operations = 8192, 1024, 1500
        workloads = ALL_WORKLOADS
    else:
        records, cache_pages, operations = 2048, 256, 400
        workloads = ["A", "C"]
    cells = []
    for device in ("nvme", "pmem"):
        for workload in workloads:
            for engine in ("kmmap", "aquila"):
                cells.append(
                    {
                        "cell_id": f"fig9/{device}/{workload}/{engine}",
                        "figure": "fig9",
                        "params": {
                            "engine_kind": engine,
                            "device_kind": device,
                            "workload": workload,
                            "record_count": records,
                            "cache_pages": cache_pages,
                            "operations": operations,
                        },
                    }
                )
    return cells


def run_sweep_cell(params: Dict) -> Dict:
    """Run one enumerated Figure 9 cell; the payload row is its state."""
    row = run_cell(
        params["engine_kind"],
        params["device_kind"],
        params["workload"],
        params["record_count"],
        params["cache_pages"],
        params["operations"],
    )
    return {"payload": row, "state": row}
