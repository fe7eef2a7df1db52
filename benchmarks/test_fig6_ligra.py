"""Figure 6: extending the application heap over fast storage (Ligra BFS)."""

from repro.bench.paper_claims import fig6_speedup
from repro.bench.report import Table, print_claims, ratio_line

PAPER_SPEEDUPS_8GB = {1: 1.56, 8: 2.54, 16: 4.14}
THREADS = [1, 8, 16]
LABELS = ["linux-pmem", "aquila-pmem", "linux-nvme", "aquila-nvme", "dram"]


def _bar(cells, variant, label, threads):
    return cells[f"fig6{variant}/{label}/t{threads}"]


def _vs_dram(cells, variant, label, threads):
    """Execution-cycle ratio of one engine bar over the DRAM-only run."""
    return (
        _bar(cells, variant, label, threads)["execution_cycles"]
        / _bar(cells, variant, "dram", threads)["execution_cycles"]
    )


def _show(cells, variant, threads, title):
    table = Table(
        title,
        ["threads", "mmap-pmem ms", "aquila-pmem ms", "mmap-nvme ms",
         "aquila-nvme ms", "dram ms", "aq-speedup(pmem)"],
    )
    for count in threads:
        table.add_row(
            count,
            *[
                _bar(cells, variant, label, count)["execution_seconds"] * 1000
                for label in LABELS
            ],
            fig6_speedup(cells, variant, count),
        )
    table.show()


def test_fig6a_small_cache(figure):
    """8 GB-equivalent cache: Aquila up to ~4.14x faster than mmap at 16t."""
    cells = figure("fig6a", threads=THREADS)
    _show(cells, "a", THREADS, "Figure 6(a): BFS execution time, small (8GB-equiv) DRAM cache")

    claims = []
    for threads in THREADS:
        claims.append(
            ratio_line(
                f"aquila/mmap speedup @{threads}t",
                PAPER_SPEEDUPS_8GB[threads],
                fig6_speedup(cells, "a", threads),
            )
        )
        claims.append(
            ratio_line(
                f"mmap slowdown vs DRAM @{threads}t (paper up to 11.8x)",
                None,
                _vs_dram(cells, "a", "linux-pmem", threads),
            )
        )
    print_claims("Figure 6(a) paper-vs-measured", claims)

    # Aquila beats mmap at every thread count.
    for threads in THREADS:
        assert fig6_speedup(cells, "a", threads) > 1.1, f"@{threads}t Aquila must win"
    # The gap grows with threads (scalability of the custom cache).
    assert fig6_speedup(cells, "a", 16) > fig6_speedup(cells, "a", 1)
    # mmap pays a large penalty vs DRAM-only; Aquila closes much of it.
    assert _vs_dram(cells, "a", "linux-pmem", 16) > 2.0
    assert _vs_dram(cells, "a", "aquila-pmem", 16) < _vs_dram(cells, "a", "linux-pmem", 16)
    # BFS results identical across configurations (functional correctness).
    visited = {
        threads: _bar(cells, "a", "aquila-pmem", threads)["visited"] for threads in THREADS
    }
    assert len(set(visited.values())) == 1
    for threads in THREADS:
        aquila = _bar(cells, "a", "aquila-pmem", threads)["visited"]
        assert aquila == _bar(cells, "a", "linux-pmem", threads)["visited"]
        assert aquila == _bar(cells, "a", "dram", threads)["visited"]


def test_fig6b_larger_cache(figure):
    """16 GB-equivalent cache: gap narrows but Aquila still wins (<=2.3x)."""
    cells = figure("fig6b", threads=[16])
    _show(cells, "b", [16], "Figure 6(b): BFS execution time, larger (16GB-equiv) DRAM cache")
    speedup = fig6_speedup(cells, "b", 16)
    print_claims(
        "Figure 6(b) paper-vs-measured",
        [ratio_line("aquila/mmap speedup @16t", 2.3, speedup)],
    )
    assert 1.0 < speedup < 5.0


def test_fig6c_time_breakdown(figure):
    """mmap burns its time in system+idle; Aquila shifts it to user work."""
    cells = figure("fig6a", threads=[16])
    results = {
        "linux": _bar(cells, "a", "linux-pmem", 16),
        "aquila": _bar(cells, "a", "aquila-pmem", 16),
    }
    table = Table(
        "Figure 6(c): execution-time breakdown, 16 threads, small cache (%)",
        ["engine", "user", "system", "idle"],
    )
    for name, cell in results.items():
        table.add_row(name, cell["user_pct"], cell["system_pct"], cell["idle_pct"])
    table.show()
    print_claims(
        "Figure 6(c) paper-vs-measured",
        [
            ratio_line(
                "mmap user share (paper 10.61%)", 10.61, results["linux"]["user_pct"], "%"
            ),
            ratio_line(
                "aquila user share (paper 55.92%)",
                55.92,
                results["aquila"]["user_pct"],
                "%",
            ),
        ],
    )
    # Aquila leaves more CPU time for useful (user) work than mmap.
    assert results["aquila"]["user_pct"] > results["linux"]["user_pct"]
    # Non-user overhead (system+idle) shrinks under Aquila.
    linux_overhead = results["linux"]["system_pct"] + results["linux"]["idle_pct"]
    aquila_overhead = results["aquila"]["system_pct"] + results["aquila"]["idle_pct"]
    assert aquila_overhead < linux_overhead
