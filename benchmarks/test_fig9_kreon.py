"""Figure 9: Kreon over kmmap vs Kreon over Aquila (paper Section 6.4)."""

from repro.bench.experiments.fig9 import ALL_WORKLOADS
from repro.bench.paper_claims import fig9_mean_ratio
from repro.bench.report import Table, print_claims, ratio_line

PAPER = {
    "nvme": {"throughput": 1.02, "avg": 1.29, "p999": 3.78},
    "pmem": {"throughput": 1.22, "avg": 1.43, "p999": 13.72},
}


def _rows(cells):
    """One row per (device, workload) with both engines and their ratios."""
    rows = []
    for device in ("nvme", "pmem"):
        workloads = {cid.split("/")[2] for cid in cells if cid.startswith(f"fig9/{device}/")}
        for workload in sorted(workloads):
            kmmap = cells[f"fig9/{device}/{workload}/kmmap"]
            aquila = cells[f"fig9/{device}/{workload}/aquila"]
            rows.append(
                {
                    "device": device,
                    "workload": workload,
                    "kmmap": kmmap,
                    "aquila": aquila,
                    "throughput_ratio": aquila["throughput"]
                    / max(1.0, kmmap["throughput"]),
                    "avg_latency_ratio": kmmap["mean_latency_cycles"]
                    / max(1.0, aquila["mean_latency_cycles"]),
                    "p999_ratio": kmmap["p999_cycles"] / max(1.0, aquila["p999_cycles"]),
                }
            )
    return rows


def test_fig9_all_workloads(figure):
    """All six YCSB workloads, single thread, dataset 2x the cache."""
    cells = figure("fig9")
    rows = _rows(cells)

    table = Table(
        "Figure 9: Kreon kmmap vs Aquila (YCSB A-F, 1 thread, 16GB data / 8GB cache)",
        ["device", "workload", "kmmap ops/s", "aquila ops/s", "thr ratio",
         "avg-lat ratio", "p99.9 ratio"],
    )
    for row in rows:
        table.add_row(
            row["device"],
            row["workload"],
            row["kmmap"]["throughput"],
            row["aquila"]["throughput"],
            row["throughput_ratio"],
            row["avg_latency_ratio"],
            row["p999_ratio"],
        )
    table.show()

    claims = []
    for device in ("nvme", "pmem"):
        avg_thr = fig9_mean_ratio(cells, device, "throughput", invert=False)
        avg_lat = fig9_mean_ratio(cells, device, "mean_latency_cycles", invert=True)
        avg_tail = fig9_mean_ratio(cells, device, "p999_cycles", invert=True)
        claims.append(
            ratio_line(f"{device} mean throughput ratio", PAPER[device]["throughput"], avg_thr)
        )
        claims.append(
            ratio_line(f"{device} mean avg-latency ratio", PAPER[device]["avg"], avg_lat)
        )
        claims.append(
            ratio_line(f"{device} mean p99.9 ratio", PAPER[device]["p999"], avg_tail)
        )
    print_claims("Figure 9 paper-vs-measured", claims)

    assert {row["workload"] for row in rows} == set(ALL_WORKLOADS)
    for row in rows:
        # Aquila never loses on throughput and wins on average latency.
        assert row["throughput_ratio"] > 0.95, f"{row['device']}-{row['workload']}"
        assert row["avg_latency_ratio"] > 0.95
        # No lookups should fail (data integrity through both engines).
        assert row["kmmap"]["not_found"] == 0
        assert row["aquila"]["not_found"] == 0
    # Tail latency: Aquila clearly better (paper: 3.78x NVMe, 13.72x pmem).
    pmem_tails = [r["p999_ratio"] for r in rows if r["device"] == "pmem"]
    assert max(pmem_tails) > 1.3, "Aquila must cut Kreon's tail latency"
