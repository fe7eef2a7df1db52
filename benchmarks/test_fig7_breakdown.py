"""Figure 7: RocksDB read-path cycle breakdown (paper Section 6.3)."""

import pytest

from repro.bench.cli import select_cells
from repro.bench.paper_claims import fig7_cache_mgmt_ratio, fig7_throughput_gain
from repro.bench.report import Table, print_claims, ratio_line

PAPER = {
    "direct": {"device_io": 4800, "cache_mgmt": 45200, "get": 15300, "total": 65400},
    "aquila": {"device_io": 3900, "cache_mgmt": 17500, "get": 18500, "total": 39900},
}


def test_fig7_cycle_breakdown(figure):
    """Aquila needs ~2.58x fewer cache-management cycles, ~40% more throughput."""
    cells = figure("fig7")
    results = {mode: cells[f"fig7/{mode}"] for mode in ("direct", "aquila")}
    cache_mgmt_ratio = fig7_cache_mgmt_ratio(cells)
    throughput_gain = fig7_throughput_gain(cells)

    table = Table(
        "Figure 7: RocksDB cycles per get (YCSB-C, dataset 4x cache, pmem)",
        ["section", "explicit I/O", "paper", "aquila", "paper "],
    )
    for section in ["device_io", "cache_mgmt", "get", "total"]:
        table.add_row(
            section,
            results["direct"]["sections"][section],
            PAPER["direct"][section],
            results["aquila"]["sections"][section],
            PAPER["aquila"][section],
        )
    table.show()

    print_claims(
        "Figure 7 paper-vs-measured",
        [
            ratio_line("cache-mgmt cycles direct/aquila", 2.58, cache_mgmt_ratio),
            ratio_line("throughput aquila/direct", 1.40, throughput_gain),
        ],
    )

    # The sections split the charged cycles: they add up to the total,
    # and the total (app.access excluded) fits in what the runner charged.
    operations = select_cells("fig7")[0]["params"]["operations"]
    for mode in ("direct", "aquila"):
        sections = results[mode]["sections"]
        charged = results[mode]["charged_total_cycles"]
        assert charged > 0
        parts = sections["device_io"] + sections["cache_mgmt"] + sections["get"]
        assert parts == pytest.approx(sections["total"], rel=1e-12), mode
        assert sections["total"] * operations <= charged * (1 + 1e-12), mode

    direct = results["direct"]["sections"]
    aquila = results["aquila"]["sections"]
    # Cache management dominates the explicit-I/O read path (~69% in paper).
    assert direct["cache_mgmt"] / direct["total"] > 0.5
    # Aquila cuts cache management by at least 2x (paper: 2.58x).
    assert cache_mgmt_ratio > 2.0
    # Aquila's get CPU is higher (TLB pressure) but its total is lower.
    assert aquila["get"] >= direct["get"]
    assert aquila["total"] < direct["total"]
    # End-to-end throughput improves by >=25% (paper: 40%).
    assert throughput_gain > 1.25
    # Aquila device I/O is cheaper thanks to the SIMD memcpy.
    assert aquila["device_io"] < direct["device_io"]
