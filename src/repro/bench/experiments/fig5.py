"""Figure 5: RocksDB YCSB-C throughput — Aquila vs mmap vs read/write.

(a) dataset fits in the cache (8 GB / 8 GB): mmap beats read/write (as the
    RocksDB tuning guide suggests for in-memory, read-heavy databases),
    and Aquila is up to 1.15x faster than mmap;
(b) dataset 4x the cache (32 GB / 8 GB): Linux mmap collapses (128 KB
    readahead for 1 KB reads), Aquila beats direct I/O by 1.18-1.65x on
    pmem and ties on NVMe (device-bound).

Latency claims of Section 6.1 are reported alongside throughput.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.setups import make_rocksdb
from repro.sim.executor import Executor, SimThread
from repro.sim.stats import throughput_ops_per_sec
from repro.workloads.ycsb import YCSBConfig, YCSBDriver

MODES = ["direct", "mmap", "aquila"]


def run_cell(
    mode: str,
    device_kind: str,
    record_count: int,
    cache_pages: int,
    num_threads: int,
    ops_per_thread: int,
    warmup_ops: Optional[int] = None,
) -> Dict:
    """One (mode, device, threads) cell: load, compact, warm, measure."""
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
        operation_count=ops_per_thread * num_threads,
        distribution="uniform",
        threads=num_threads,
    )
    driver = YCSBDriver(db, config)
    driver.load(loader)
    db.flush(loader)
    db.compact_all(loader)

    if warmup_ops is None:
        # Enough to reach cache steady state (2x the resident set).
        warmup_ops = 2 * min(record_count // 4, cache_pages)
    warm = stack.machine.thread(0)
    warm.clock.now = loader.clock.now
    for _ in driver.run_workload(warm, warmup_ops):
        pass
    loader = warm   # measured phase continues from the warm clock

    threads: List[SimThread] = []
    executor = Executor()
    for index in range(num_threads):
        thread = stack.machine.thread(index % stack.machine.topology.num_hw_threads)
        thread.clock.now = loader.clock.now
        threads.append(thread)
        executor.add(thread, driver.run_workload(thread, ops_per_thread))
    stack.machine.apply_smt_penalty(threads)
    phase_start = loader.clock.now
    result = executor.run()
    latencies = result.merged_latencies()
    return {
        "mode": mode,
        "device": device_kind,
        "threads": num_threads,
        "throughput": throughput_ops_per_sec(
            result.total_ops, result.makespan_cycles - phase_start
        ),
        "mean_latency_cycles": latencies.mean(),
        "p999_cycles": latencies.p999(),
        "not_found": driver.stats.not_found,
    }


def enumerate_cells(scale: str = "figure") -> List[Dict]:
    """Every Figure 5 cell as an independent sweep work unit.

    Grid: variant (a: in-cache, b: 4x the cache) x device (pmem, nvme)
    x thread count x RocksDB mode (direct, mmap, aquila).  Params carry
    the fully resolved sizing (record count, cache pages, ops) so the
    config digest pins the exact run.
    """
    if scale == "figure":
        counts, ops = [1, 4, 16], 300
        records_a, records_b = 4096, 8192
    else:
        counts, ops = [1, 4], 150
        records_a, records_b = 1024, 2048
    # fig5a: 1 KB records, 4 per page, plus ~30% headroom for SST
    # metadata (index/filter/footer blocks) — the paper's 8 GB dataset
    # fitting its 8 GB cache after format overheads.
    cache_a = int((records_a // 4) * 1.3)
    cache_b = 512 if scale == "figure" else 128
    cells = []
    for variant, records, cache_pages in (
        ("a", records_a, cache_a),
        ("b", records_b, cache_b),
    ):
        for device in ("pmem", "nvme"):
            for threads in counts:
                for mode in MODES:
                    cells.append(
                        {
                            "cell_id": f"fig5{variant}/{device}/t{threads}/{mode}",
                            "figure": f"fig5{variant}",
                            "params": {
                                "mode": mode,
                                "device_kind": device,
                                "record_count": records,
                                "cache_pages": cache_pages,
                                "num_threads": threads,
                                "ops_per_thread": ops,
                            },
                        }
                    )
    return cells


def run_sweep_cell(params: Dict) -> Dict:
    """Run one enumerated Figure 5 cell; the payload row is its state.

    RocksDB cells digest their measured payload (throughput, latency
    stats, op counts): the simulation is deterministic, so the payload is
    a faithful — if coarse — fingerprint of the run.
    """
    row = run_cell(
        params["mode"],
        params["device_kind"],
        params["record_count"],
        params["cache_pages"],
        params["num_threads"],
        params["ops_per_thread"],
    )
    return {"payload": row, "state": row}
