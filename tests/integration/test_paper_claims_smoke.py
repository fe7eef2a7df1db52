"""Fast, tiny-scale versions of the paper's headline claims.

The full reproductions live in ``benchmarks/``; these smoke tests keep the
claims under regression watch at unit-test cost.
"""

import pytest

from repro.bench.experiments.fig7 import run_mode
from repro.bench.experiments.fig8 import (
    FIG8C_PATHS,
    in_memory_pages,
    run_cache_hit,
    run_fault_benchmark,
)
from repro.bench.experiments.fig10 import run_cell
from repro.bench.paper_claims import fig7_cache_mgmt_ratio, fig7_throughput_gain
from repro.common import constants


def _fig8a(accesses):
    """Linux then Aquila in-memory fault benchmark, as Figure 8(a) runs them."""
    return {
        engine: run_fault_benchmark(engine, *in_memory_pages(accesses), accesses)
        for engine in ("linux", "aquila")
    }


def _fig8c(accesses):
    """Mean fault cycles per Figure 8(c) device-access path, then Cache-Hit."""
    results = {
        label: run_fault_benchmark(
            "aquila", *in_memory_pages(accesses), accesses,
            device_kind=device_kind, io_path=io_path,
        )["mean_access_cycles"]
        for label, device_kind, io_path in FIG8C_PATHS
    }
    results["Cache-Hit"] = run_cache_hit(accesses)
    return results


def _fig10_throughput(engine, threads):
    row, _, _ = run_cell(engine, threads, True, True, cache_pages=512, total_accesses=512)
    return row["throughput"]


class TestFaultCosts:
    def test_linux_fault_near_5380(self):
        results = _fig8a(200)
        assert results["linux"]["mean_access_cycles"] == pytest.approx(5380, rel=0.05)

    def test_aquila_fault_cheaper(self):
        results = _fig8a(200)
        assert (
            results["aquila"]["mean_access_cycles"]
            < 0.75 * results["linux"]["mean_access_cycles"]
        )

    def test_cache_hit_fault_exactly_2179(self):
        results = _fig8c(150)
        assert results["Cache-Hit"] == pytest.approx(2179, abs=10)

    def test_device_path_ordering(self):
        results = _fig8c(150)
        assert results["DAX-pmem"] < results["HOST-pmem"]
        assert results["SPDK-NVMe"] < results["HOST-NVMe"]


class TestScalabilityClaim:
    def test_shared_file_gap_widens(self):
        one = _fig10_throughput("aquila", 1)
        linux_one = _fig10_throughput("linux", 1)
        sixteen = _fig10_throughput("aquila", 16)
        linux_sixteen = _fig10_throughput("linux", 16)
        gap_1 = one / linux_one
        gap_16 = sixteen / linux_sixteen
        assert gap_1 > 1.1
        assert gap_16 > gap_1


class TestRocksDBClaim:
    def test_cache_management_reduction(self):
        cells = {
            f"fig7/{mode}": run_mode(mode, record_count=4096, operations=600,
                                     cache_pages=256)
            for mode in ("direct", "aquila")
        }
        # Paper: 2.58x fewer cache-management cycles, 40% more throughput.
        assert fig7_cache_mgmt_ratio(cells) > 1.8
        assert fig7_throughput_gain(cells) > 1.2
        # Aquila's get CPU is higher (TLB effects) yet it still wins.
        assert (
            cells["fig7/aquila"]["sections"]["get"]
            >= cells["fig7/direct"]["sections"]["get"]
        )
