"""Figure 8: page-fault overhead breakdowns (paper Section 6.4)."""

from repro.bench.report import Table, print_claims, ratio_line
from repro.common import constants


def test_fig8a_in_memory_fault_cost(figure):
    """Fig 8(a): Linux ~5380 cycles/fault on pmem; Aquila's trap is 2.33x lower."""
    cells = figure("fig8a")
    linux = cells["fig8a/linux"]
    aquila = cells["fig8a/aquila"]

    table = Table(
        "Figure 8(a): page-fault breakdown, pmem, dataset fits in memory (cycles/fault)",
        ["component", "linux-mmap", "aquila"],
    )
    components = sorted(set(linux["breakdown"]) | set(aquila["breakdown"]))
    for component in components:
        table.add_row(
            component,
            linux["breakdown"].get(component, 0.0),
            aquila["breakdown"].get(component, 0.0),
        )
    table.add_row("TOTAL (mean/access)", linux["mean_access_cycles"], aquila["mean_access_cycles"])
    table.show()

    trap_ratio = constants.TRAP_RING3_CYCLES / constants.TRAP_AQUILA_CYCLES
    reduction = 1 - aquila["mean_access_cycles"] / linux["mean_access_cycles"]
    print_claims(
        "Figure 8(a) paper-vs-measured",
        [
            ratio_line("Linux total fault cycles", 5380, linux["mean_access_cycles"], ""),
            ratio_line("trap ring3/aquila", 2.33, trap_ratio),
            ratio_line("Aquila fault latency reduction", 0.453, reduction, ""),
        ],
    )

    assert 5000 < linux["mean_access_cycles"] < 6000, "Linux fault should be ~5380 cycles"
    assert aquila["mean_access_cycles"] < linux["mean_access_cycles"]
    assert abs(trap_ratio - 2.33) < 0.01
    assert linux["breakdown"]["trap/exception"] > aquila["breakdown"]["trap/exception"]


def test_fig8b_out_of_memory_fault_cost(figure):
    """Fig 8(b): with evictions, Aquila ~2.06x lower overhead than mmap."""
    cells = figure("fig8b")
    linux = cells["fig8b/linux"]
    aquila = cells["fig8b/aquila"]

    table = Table(
        "Figure 8(b): fault breakdown with evictions (8GB cache / 100GB data, cycles/access)",
        ["component", "linux-mmap", "aquila"],
    )
    for component in sorted(set(linux["breakdown"]) | set(aquila["breakdown"])):
        table.add_row(
            component,
            linux["breakdown"].get(component, 0.0),
            aquila["breakdown"].get(component, 0.0),
        )
    table.add_row("STEADY MEAN", linux["steady_mean_cycles"], aquila["steady_mean_cycles"])
    table.show()

    ratio = linux["steady_mean_cycles"] / aquila["steady_mean_cycles"]
    print_claims(
        "Figure 8(b) paper-vs-measured",
        [ratio_line("mmap/Aquila overhead", 2.06, ratio)],
    )
    assert ratio > 1.3, "Aquila must be clearly cheaper with evictions in the path"
    # "no single source of overhead dominates" for Aquila: every non-I/O
    # component under 25% of the total (the paper claims <10% at full scale).
    non_io_total = sum(
        v for k, v in aquila["breakdown"].items() if "I/O" not in k
    )
    for component, value in aquila["breakdown"].items():
        if "I/O" in component:
            continue
        assert value <= 0.4 * non_io_total, f"{component} dominates Aquila's overhead"


def test_fig8c_device_access_paths(figure):
    """Fig 8(c): Cache-Hit 2179 cycles; host paths beat by DAX/SPDK."""
    results = {
        cell_id.split("/")[1]: payload["mean_access_cycles"]
        for cell_id, payload in figure("fig8c").items()
    }

    table = Table(
        "Figure 8(c): Aquila device-access paths (cycles/fault)",
        ["path", "cycles"],
    )
    for label in ["Cache-Hit", "DAX-pmem", "HOST-pmem", "SPDK-NVMe", "HOST-NVMe"]:
        table.add_row(label, results[label])
    table.show()

    print_claims(
        "Figure 8(c) paper-vs-measured",
        [
            ratio_line("Cache-Hit cycles", 2179, results["Cache-Hit"], ""),
            ratio_line(
                "HOST-pmem / DAX-pmem (I/O component 7.77x)",
                None,
                results["HOST-pmem"] / results["DAX-pmem"],
            ),
            ratio_line(
                "HOST-NVMe / SPDK-NVMe", 1.53, results["HOST-NVMe"] / results["SPDK-NVMe"]
            ),
        ],
    )

    assert abs(results["Cache-Hit"] - 2179) < 50, "cache-hit fault must match the paper"
    assert results["DAX-pmem"] < results["HOST-pmem"]
    assert results["SPDK-NVMe"] < results["HOST-NVMe"]
    ratio_nvme = results["HOST-NVMe"] / results["SPDK-NVMe"]
    assert 1.3 < ratio_nvme < 1.8, "host-NVMe penalty should be ~1.53x"
    # The pure I/O components: 1200 (DAX) vs 9324 (host-pmem) = 7.77x.
    io_ratio = (results["HOST-pmem"] - results["Cache-Hit"]) / (
        results["DAX-pmem"] - results["Cache-Hit"]
    )
    assert io_ratio > 4.0, "removing host syscalls must cut pmem I/O cost sharply"
