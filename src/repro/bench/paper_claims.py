"""The paper's evaluation claims, pinned, with manifest-backed verdicts.

Each :class:`Claim` is one row of EXPERIMENTS.md's summary table: the
paper's published number (pinned here, never regenerated) and a
``measure`` function that extracts the corresponding measured value from
a sweep-manifest cell index (cell id -> payload dict, see
:mod:`repro.bench.sweep`) and computes the verdict.  EXPERIMENTS.md is
generated from this table by ``python -m repro.bench report`` — the doc
can only change when the measured data or these pins change, and CI
diffs the committed doc against the regeneration (``report --check``).

Verdict vocabulary:

* ``exact`` — matches the paper's number to ~1%;
* ``=`` — matches within the claim's tolerance;
* ``shape ✓`` — direction and rough magnitude agree (who wins, where
  crossovers fall), absolute factor differs;
* ``shape ✓, overshoots`` — right shape, ratio above the paper's (see
  deviation D5);
* ``see Dn`` — a pinned, explained deviation (EXPERIMENTS.md §Known
  deviations);
* ``✗`` — the claim's direction does not reproduce (a regression; CI
  surfaces it through the ``report --check`` diff).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

Cells = Dict[str, dict]
Measured = Tuple[str, str]   # (measured display, verdict)


@dataclass(frozen=True)
class Claim:
    """One summary-table row: a pinned paper number and its extractor."""

    experiment: str                      # e.g. "Fig 5(a)"
    claim: str                           # what the paper asserts
    paper: str                           # the paper's value, as displayed
    measure: Callable[[Cells], Measured]  # manifest -> (measured, verdict)


# -- formatting helpers --------------------------------------------------------


def _x(value: float) -> str:
    return f"{value:.2f}×"


def _rng(lo: float, hi: float) -> str:
    return f"{lo:.2f}–{hi:.2f}×"


def _k(cycles: float) -> str:
    return f"{cycles / 1000:.1f}K"


def _within(measured: float, paper: float, tol: float) -> bool:
    return paper != 0 and abs(measured / paper - 1.0) <= tol


# -- extraction helpers --------------------------------------------------------


def need_cell(cells: Cells, cell_id: str) -> dict:
    """The manifest record of ``cell_id``; ``KeyError`` names the missing cell."""
    if cell_id not in cells:
        raise KeyError(
            f"manifest is missing cell {cell_id!r} needed by a paper claim "
            "(run: python -m repro.bench sweep)"
        )
    return cells[cell_id]


def fig5_threads(cells: Cells, variant: str) -> List[int]:
    """Thread counts present in the fig5 grid for ``variant`` ("a"/"b")."""
    counts = set()
    for cell_id in cells:
        parts = cell_id.split("/")
        if parts[0] == f"fig5{variant}" and len(parts) == 4:
            counts.add(int(parts[2][1:]))
    return sorted(counts)


def fig10_threads(cells: Cells, variant: str, sharing: str) -> List[int]:
    """Thread counts present in the fig10 grid for one variant/sharing."""
    counts = set()
    for cell_id in cells:
        parts = cell_id.split("/")
        if parts[0] == f"fig10{variant}" and parts[1] == sharing and len(parts) == 4:
            counts.add(int(parts[3][1:]))
    return sorted(counts)


def _fig5_ratio_range(
    cells: Cells, variant: str, devices, numerator: str, denominator: str
) -> Tuple[float, float]:
    ratios = []
    for device in devices:
        for threads in fig5_threads(cells, variant):
            num = need_cell(cells, f"fig5{variant}/{device}/t{threads}/{numerator}")
            den = need_cell(cells, f"fig5{variant}/{device}/t{threads}/{denominator}")
            ratios.append(num["throughput"] / max(1e-9, den["throughput"]))
    return min(ratios), max(ratios)


def _fig5_all_cells_beat(
    cells: Cells, variant: str, winner: str, loser: str
) -> Tuple[int, int]:
    wins = total = 0
    for device in ("pmem", "nvme"):
        for threads in fig5_threads(cells, variant):
            win = need_cell(cells, f"fig5{variant}/{device}/t{threads}/{winner}")
            lose = need_cell(cells, f"fig5{variant}/{device}/t{threads}/{loser}")
            total += 1
            wins += win["throughput"] > lose["throughput"]
    return wins, total


def fig6_speedup(cells: Cells, variant: str, threads: int) -> float:
    """Linux-pmem over Aquila-pmem BFS execution-cycle ratio."""
    linux = need_cell(cells, f"fig6{variant}/linux-pmem/t{threads}")
    aquila = need_cell(cells, f"fig6{variant}/aquila-pmem/t{threads}")
    return linux["execution_cycles"] / aquila["execution_cycles"]


def fig9_mean_ratio(cells: Cells, device: str, field: str, invert: bool) -> float:
    """Mean over YCSB workloads of the per-workload kmmap:aquila ratio.

    ``invert=False`` reports aquila/kmmap (throughput: higher is better);
    ``invert=True`` reports kmmap/aquila (latency: lower is better).
    """
    workloads = sorted(
        cell_id.split("/")[2]
        for cell_id in cells
        if cell_id.startswith(f"fig9/{device}/") and cell_id.endswith("/aquila")
    )
    ratios = []
    for workload in workloads:
        kmmap = need_cell(cells, f"fig9/{device}/{workload}/kmmap")
        aquila = need_cell(cells, f"fig9/{device}/{workload}/aquila")
        if invert:
            ratios.append(kmmap[field] / max(1e-9, aquila[field]))
        else:
            ratios.append(aquila[field] / max(1e-9, kmmap[field]))
    return sum(ratios) / len(ratios)


def fig10_speedup(cells: Cells, variant: str, sharing: str, threads: int) -> float:
    """Aquila over Linux throughput for one fig10 cell pair."""
    linux = need_cell(cells, f"fig10{variant}/{sharing}/linux/t{threads}")
    aquila = need_cell(cells, f"fig10{variant}/{sharing}/aquila/t{threads}")
    return aquila["throughput"] / max(1e-9, linux["throughput"])


def _fig10_latency_ratio(cells: Cells, variant: str, threads: int, field: str) -> float:
    linux = need_cell(cells, f"fig10{variant}/shared/linux/t{threads}")
    aquila = need_cell(cells, f"fig10{variant}/shared/aquila/t{threads}")
    return linux[field] / max(1e-9, aquila[field])


# -- the claims ---------------------------------------------------------------


def _table1(cells: Cells) -> Measured:
    return "exact (asserted in `tests/workloads/test_ycsb.py`)", "="


def _fig5a_mmap_beats_direct(cells: Cells) -> Measured:
    wins, total = _fig5_all_cells_beat(cells, "a", "mmap", "direct")
    if wins == total:
        return "yes, all cells", "="
    return f"{wins}/{total} cells", "✗"


def _fig5a_aquila_over_mmap(cells: Cells) -> Measured:
    lo, hi = _fig5_ratio_range(cells, "a", ("pmem", "nvme"), "aquila", "mmap")
    if lo < 1.0:
        return _rng(lo, hi), "✗"
    if hi <= 1.15 * 1.15:
        return _rng(lo, hi), "="
    return _rng(lo, hi), "shape ✓, overshoots"


def _fig5b_mmap_collapses(cells: Cells) -> Measured:
    wins, total = _fig5_all_cells_beat(cells, "b", "direct", "mmap")
    if wins == total:
        return "yes (mmap < direct everywhere)", "="
    return f"mmap < direct in {wins}/{total} cells", "✗"


def _fig5b_aquila_pmem(cells: Cells) -> Measured:
    lo, hi = _fig5_ratio_range(cells, "b", ("pmem",), "aquila", "direct")
    if lo < 1.0:
        return _rng(lo, hi), "✗"
    if 1.18 * 0.9 <= lo and hi <= 1.65 * 1.05:
        return _rng(lo, hi), "="
    return _rng(lo, hi), "shape ✓, overshoots"


def _fig5b_aquila_nvme(cells: Cells) -> Measured:
    lo, hi = _fig5_ratio_range(cells, "b", ("nvme",), "aquila", "direct")
    max_t = fig5_threads(cells, "b")[-1]
    return f"{_rng(lo, hi)} at ≤{max_t}t", "see D1"


def _s61_latency(cells: Cells) -> Measured:
    ratios = [
        need_cell(cells, f"fig5b/pmem/t{threads}/direct")["mean_latency_cycles"]
        / max(
            1e-9,
            need_cell(cells, f"fig5b/pmem/t{threads}/aquila")["mean_latency_cycles"],
        )
        for threads in fig5_threads(cells, "b")
    ]
    lo, hi = min(ratios), max(ratios)
    return _rng(lo, hi), ("shape ✓" if lo > 1.0 else "✗")


def _fig6a_speedups(cells: Cells) -> Measured:
    counts = sorted(
        int(cell_id.rsplit("/t", 1)[1])
        for cell_id in cells
        if cell_id.startswith("fig6a/aquila-pmem/t")
    )
    speedups = [fig6_speedup(cells, "a", threads) for threads in counts]
    display = "/".join(f"{s:.2f}" for s in speedups) + "×"
    monotone = all(b > a for a, b in zip(speedups, speedups[1:]))
    if all(s > 1.0 for s in speedups) and monotone:
        return display, "shape ✓"
    return display, "✗"


def _fig6_max_threads(cells: Cells, variant: str) -> int:
    return max(
        int(cell_id.rsplit("/t", 1)[1])
        for cell_id in cells
        if cell_id.startswith(f"fig6{variant}/aquila-pmem/t")
    )


def _fig6b_speedup(cells: Cells) -> Measured:
    speedup = fig6_speedup(cells, "b", _fig6_max_threads(cells, "b"))
    return _x(speedup), ("=" if speedup <= 2.3 * 1.1 and speedup > 1.0 else "shape ✓")


def _fig6c_user_share(cells: Cells) -> Measured:
    threads = _fig6_max_threads(cells, "a")
    linux = need_cell(cells, f"fig6a/linux-pmem/t{threads}")["user_pct"]
    aquila = need_cell(cells, f"fig6a/aquila-pmem/t{threads}")["user_pct"]
    display = f"{linux:.1f}% → {aquila:.1f}%"
    return display, ("shape ✓" if aquila > linux else "✗")


def _fig7_cache_mgmt(cells: Cells) -> Measured:
    ratio = need_cell(cells, "fig7/direct")["sections"]["cache_mgmt"] / max(
        1.0, need_cell(cells, "fig7/aquila")["sections"]["cache_mgmt"]
    )
    return _x(ratio), ("=" if _within(ratio, 2.58, 0.15) else "shape ✓")


def _fig7_throughput(cells: Cells) -> Measured:
    gain = need_cell(cells, "fig7/aquila")["throughput"] / max(
        1.0, need_cell(cells, "fig7/direct")["throughput"]
    )
    display = f"+{(gain - 1) * 100:.0f}%"
    if _within(gain, 1.40, 0.1):
        return display, "="
    return display, ("shape ✓" if gain > 1.2 else "✗")


def _fig7_get_cpu(cells: Cells) -> Measured:
    aquila = need_cell(cells, "fig7/aquila")["sections"]["get"]
    direct = need_cell(cells, "fig7/direct")["sections"]["get"]
    display = f"{_k(aquila)} vs {_k(direct)}"
    return display, ("=" if aquila > direct else "✗")


def _fig8a_linux_total(cells: Cells) -> Measured:
    mean = need_cell(cells, "fig8a/linux")["mean_access_cycles"]
    return f"{mean:.0f}", ("=" if _within(mean, 5380, 0.05) else "shape ✓")


def _fig8a_trap_ratio(cells: Cells) -> Measured:
    linux = need_cell(cells, "fig8a/linux")["breakdown"]["trap/exception"]
    aquila = need_cell(cells, "fig8a/aquila")["breakdown"]["trap/exception"]
    ratio = linux / max(1e-9, aquila)
    return _x(ratio), ("exact" if _within(ratio, 2.33, 0.01) else "=")


def _fig8a_reduction(cells: Cells) -> Measured:
    linux = need_cell(cells, "fig8a/linux")["mean_access_cycles"]
    aquila = need_cell(cells, "fig8a/aquila")["mean_access_cycles"]
    return f"{(1 - aquila / linux) * 100:.0f}%", "see D2"


def _fig8b_ratio(cells: Cells) -> Measured:
    linux = need_cell(cells, "fig8b/linux")["steady_mean_cycles"]
    aquila = need_cell(cells, "fig8b/aquila")["steady_mean_cycles"]
    ratio = linux / max(1e-9, aquila)
    if _within(ratio, 2.06, 0.1):
        return _x(ratio), "="
    return _x(ratio), ("shape ✓" if ratio > 1.3 else "✗")


def _fig8b_no_dominator(cells: Cells) -> Measured:
    cell = need_cell(cells, "fig8b/aquila")
    breakdown = cell["breakdown"]
    total = cell["steady_mean_cycles"]
    non_io = {
        label: cycles
        for label, cycles in breakdown.items()
        if "device" not in label and "wait" not in label
    }
    worst = max(non_io.values()) / max(1e-9, total)
    display = f"max non-I/O component <{worst * 100:.0f}%"
    return display, ("=" if worst < 0.10 else "shape ✓")


def _fig8c_cache_hit(cells: Cells) -> Measured:
    mean = need_cell(cells, "fig8c/Cache-Hit")["mean_access_cycles"]
    if abs(mean - 2179) < 1.0:
        return f"{mean:.0f}", "exact"
    return f"{mean:.0f}", ("=" if _within(mean, 2179, 0.05) else "shape ✓")


def _device_cycles(payload: dict) -> float:
    return sum(
        cycles
        for label, cycles in payload["breakdown"].items()
        if "device" in label
    )


def _fig8c_host_vs_dax(cells: Cells) -> Measured:
    host = need_cell(cells, "fig8c/HOST-pmem")
    dax = need_cell(cells, "fig8c/DAX-pmem")
    io_ratio = _device_cycles(host) / max(1e-9, _device_cycles(dax))
    total_ratio = host["mean_access_cycles"] / max(1e-9, dax["mean_access_cycles"])
    display = f"{_x(io_ratio)} (I/O component; total {total_ratio:.1f}×)"
    return display, ("=" if _within(io_ratio, 7.77, 0.05) else "shape ✓")


def _fig8c_host_vs_spdk(cells: Cells) -> Measured:
    ratio = need_cell(cells, "fig8c/HOST-NVMe")["mean_access_cycles"] / max(
        1e-9, need_cell(cells, "fig8c/SPDK-NVMe")["mean_access_cycles"]
    )
    return _x(ratio), ("=" if _within(ratio, 1.53, 0.1) else "shape ✓")


def _fig9_throughput(device: str, paper: float):
    def measure(cells: Cells) -> Measured:
        ratio = fig9_mean_ratio(cells, device, "throughput", invert=False)
        if _within(ratio, paper, 0.1):
            return _x(ratio), "="
        return _x(ratio), ("shape ✓" if ratio > 0.95 else "✗")

    return measure


def _fig9_avg_latency(cells: Cells) -> Measured:
    nvme = fig9_mean_ratio(cells, "nvme", "mean_latency_cycles", invert=True)
    pmem = fig9_mean_ratio(cells, "pmem", "mean_latency_cycles", invert=True)
    display = f"{nvme:.2f}/{pmem:.2f}×"
    return display, ("shape ✓" if nvme > 1.0 and pmem > 1.0 else "✗")


def _fig9_p999(cells: Cells) -> Measured:
    nvme = fig9_mean_ratio(cells, "nvme", "p999_cycles", invert=True)
    pmem = fig9_mean_ratio(cells, "pmem", "p999_cycles", invert=True)
    return f"{nvme:.2f}/{pmem:.2f}×", "see D3"


def _fig10_shared(variant: str, paper_1t: float, paper_max: float, tol: float):
    def measure(cells: Cells) -> Measured:
        counts = fig10_threads(cells, variant, "shared")
        lo_t, hi_t = counts[0], counts[-1]
        first = fig10_speedup(cells, variant, "shared", lo_t)
        last = fig10_speedup(cells, variant, "shared", hi_t)
        display = f"{first:.2f}× / {last:.2f}×"
        if _within(last, paper_max, tol):
            return display, "="
        return display, ("shape ✓" if last > first > 1.0 else "✗")

    return measure


def _fig10a_private(cells: Cells) -> Measured:
    threads = fig10_threads(cells, "a", "private")[-1]
    speedup = fig10_speedup(cells, "a", "private", threads)
    display = f"{speedup:.2f}× (flat, no collapse)"
    return display, ("shape ✓" if speedup > 0.95 else "✗")


def _fig10b_private(cells: Cells) -> Measured:
    threads = fig10_threads(cells, "b", "private")[-1]
    return _x(fig10_speedup(cells, "b", "private", threads)), "see D4"


def _s65_avg_latency(cells: Cells) -> Measured:
    threads = fig10_threads(cells, "b", "shared")[-1]
    ratio = _fig10_latency_ratio(cells, "b", threads, "mean_latency_cycles")
    return _x(ratio), ("shape ✓" if ratio > 1.0 else "✗")


def _s65_tails(cells: Cells) -> Measured:
    threads = fig10_threads(cells, "b", "shared")[-1]
    p99 = _fig10_latency_ratio(cells, "b", threads, "p99_cycles")
    p999 = _fig10_latency_ratio(cells, "b", threads, "p999_cycles")
    return f"{p99:.2f}× / {p999:.2f}×", "see D3"


# -- beyond-paper expectations (serve) ----------------------------------------


def _serve_victim_p99(cells: Cells, engine: str, policy: str, intensity: int) -> float:
    """Pooled victim p99 of one serve cell (the serve headline statistic)."""
    return need_cell(cells, f"serve/{engine}/{policy}/a{intensity}")["victim_p99_cycles"]


def _serve_antagonist_inflates(engine: str):
    """Victim p99 must rise when the antagonist arrives (no QoS)."""

    def measure(cells: Cells) -> Measured:
        base = _serve_victim_p99(cells, engine, "none", 0)
        contended = _serve_victim_p99(cells, engine, "none", 6)
        display = f"{_k(base)} → {_k(contended)}"
        return display, ("=" if contended > base else "✗")

    return measure


def _serve_qos_restores(engine: str):
    """Cache partitioning must pull victim p99 back toward the baseline."""

    def measure(cells: Cells) -> Measured:
        none = _serve_victim_p99(cells, engine, "none", 6)
        static = _serve_victim_p99(cells, engine, "static", 6)
        prop = _serve_victim_p99(cells, engine, "proportional", 6)
        display = f"none {_k(none)}, static {_k(static)}, prop {_k(prop)}"
        return display, ("=" if static <= none and prop <= none else "✗")

    return measure


def _serve_engine_order(cells: Cells) -> Measured:
    """Under the antagonist, engines must rank aquila < kmmap < linux."""
    aquila = _serve_victim_p99(cells, "aquila", "none", 6)
    kmmap = _serve_victim_p99(cells, "kmmap", "none", 6)
    linux = _serve_victim_p99(cells, "linux", "none", 6)
    display = f"{_k(aquila)} < {_k(kmmap)} < {_k(linux)}"
    return display, ("=" if aquila < kmmap < linux else "✗")


# -- beyond-paper expectations (cluster) ---------------------------------------


def _m(ops_per_sec: float) -> str:
    """Format a cluster throughput as millions of ops/s."""
    return f"{ops_per_sec / 1e6:.1f}M"


def _cluster_scaleout(engine: str):
    """Sharding the one logical dataset must raise aggregate throughput.

    At replication=2 a 2-shard cluster still holds the whole dataset on
    every machine (owned + replica), so the honest comparison is 1 shard
    vs 4 — where cold faults and serving genuinely divide.
    """

    def measure(cells: Cells) -> Measured:
        one = need_cell(cells, f"cluster/{engine}/s1")["throughput"]
        four = need_cell(cells, f"cluster/{engine}/s4")["throughput"]
        display = f"{_m(one)} → {_m(four)} ({_x(four / one)})"
        return display, ("=" if four > one else "✗")

    return measure


def _cluster_failover_serves_all(cells: Cells) -> Measured:
    """A mid-epoch primary kill must lose no client op: the ring promotes
    replicas and the coordinator re-routes the victim's unserved tail."""
    for engine in ("aquila", "kmmap", "linux"):
        clean = need_cell(cells, f"cluster/{engine}/s4")
        failed = need_cell(cells, f"cluster/{engine}/s4-failover")
        ok = (
            failed["client_ops"] == clean["client_ops"]
            and failed["rerouted_ops"] > 0
            and len(failed["dead_shards"]) == 1
        )
        if not ok:
            return f"{engine}: {failed['client_ops']}/{clean['client_ops']}", "✗"
    failed = need_cell(cells, "cluster/aquila/s4-failover")
    display = (
        f"{failed['client_ops']} ops, {failed['rerouted_ops']} rerouted, 1 dead"
    )
    return display, "="


def _cluster_failover_degrades_bounded(cells: Cells) -> Measured:
    """Losing 1 of 4 shards must cost throughput — but the degraded
    cluster must still beat the single machine, for every engine."""
    for engine in ("aquila", "kmmap", "linux"):
        one = need_cell(cells, f"cluster/{engine}/s1")["throughput"]
        four = need_cell(cells, f"cluster/{engine}/s4")["throughput"]
        failed = need_cell(cells, f"cluster/{engine}/s4-failover")["throughput"]
        if not one < failed < four:
            return f"{engine}: {_m(one)} / {_m(failed)} / {_m(four)}", "✗"
    one = need_cell(cells, "cluster/aquila/s1")["throughput"]
    four = need_cell(cells, "cluster/aquila/s4")["throughput"]
    failed = need_cell(cells, "cluster/aquila/s4-failover")["throughput"]
    display = f"s1 {_m(one)} < killed {_m(failed)} < s4 {_m(four)} (aquila)"
    return display, "="


#: The summary table, in document order.  Paper values are pinned
#: verbatim from the paper's Section 6; measured values and verdicts are
#: recomputed from the sweep manifest on every regeneration.
PAPER_CLAIMS: List[Claim] = [
    Claim("Table 1", "YCSB mixes A–F", "spec", _table1),
    Claim("Fig 5(a)", "mmap > read/write in memory", "yes", _fig5a_mmap_beats_direct),
    Claim("Fig 5(a)", "Aquila/mmap", "≤1.15×", _fig5a_aquila_over_mmap),
    Claim("Fig 5(b)", "mmap collapses out of memory", "yes", _fig5b_mmap_collapses),
    Claim("Fig 5(b)", "Aquila/direct, pmem", "1.18–1.65×", _fig5b_aquila_pmem),
    Claim("Fig 5(b)", "Aquila/direct, NVMe", "~1× (saturated)", _fig5b_aquila_nvme),
    Claim("§6.1", "avg latency direct/Aquila o-o-m", "1.26×", _s61_latency),
    Claim("Fig 6(a)", "Aquila/mmap @1/8/16t (pmem)", "1.56/2.54/4.14×", _fig6a_speedups),
    Claim("Fig 6(b)", "Aquila/mmap @16t, larger cache", "≤2.3×", _fig6b_speedup),
    Claim("Fig 6(c)", "user share mmap → Aquila", "10.6% → 55.9%", _fig6c_user_share),
    Claim("Fig 7", "cache-mgmt cycles direct/Aquila", "2.58×", _fig7_cache_mgmt),
    Claim("Fig 7", "throughput gain", "+40%", _fig7_throughput),
    Claim("Fig 7", "Aquila get CPU > direct get CPU", "18.5K vs 15.3K", _fig7_get_cpu),
    Claim("Fig 8(a)", "Linux fault total (pmem)", "5380 cycles", _fig8a_linux_total),
    Claim("Fig 8(a)", "trap ring3 / Aquila exception", "2.33×", _fig8a_trap_ratio),
    Claim("Fig 8(a)", "Aquila fault latency reduction", "45.3%", _fig8a_reduction),
    Claim("Fig 8(b)", "mmap/Aquila with evictions", "2.06×", _fig8b_ratio),
    Claim("Fig 8(b)", "no Aquila component dominates", "<10% each", _fig8b_no_dominator),
    Claim("Fig 8(c)", "Cache-Hit fault", "2179 cycles", _fig8c_cache_hit),
    Claim("Fig 8(c)", "HOST-pmem / DAX-pmem I/O", "7.77×", _fig8c_host_vs_dax),
    Claim("Fig 8(c)", "HOST-NVMe / SPDK-NVMe", "1.53×", _fig8c_host_vs_spdk),
    Claim("Fig 9", "NVMe throughput ratio", "1.02×", _fig9_throughput("nvme", 1.02)),
    Claim("Fig 9", "pmem throughput ratio", "1.22×", _fig9_throughput("pmem", 1.22)),
    Claim("Fig 9", "avg latency ratios", "1.29/1.43×", _fig9_avg_latency),
    Claim("Fig 9", "p99.9 ratios", "3.78/13.72×", _fig9_p999),
    Claim(
        "Fig 10(a)",
        "shared file @1t / @32t",
        "1.81× / 8.37×",
        _fig10_shared("a", 1.81, 8.37, 0.15),
    ),
    Claim("Fig 10(a)", "private file @32t", "1.99×", _fig10a_private),
    Claim(
        "Fig 10(b)",
        "shared file @1t / @32t",
        "2.17× / 12.92×",
        _fig10_shared("b", 2.17, 12.92, 0.2),
    ),
    Claim("Fig 10(b)", "private file @32t", "2.84×", _fig10b_private),
    Claim("§6.5", "avg latency @32t shared", "8.52×", _s65_avg_latency),
    Claim("§6.5", "p99/p99.9 @32t shared", "177× / 213×", _s65_tails),
]


#: Expectations for figure families the paper does not contain, pinned
#: from validated runs the same way the paper claims pin Section 6
#: numbers.  The "paper" column reads "beyond paper"; verdicts use the
#: same vocabulary (``=`` holds, ``✗`` regressed).
BEYOND_PAPER_EXPECTATIONS: List[Claim] = [
    Claim(
        "Serve",
        "antagonist inflates aquila victim p99 (no QoS)",
        "beyond paper",
        _serve_antagonist_inflates("aquila"),
    ),
    Claim(
        "Serve",
        "antagonist inflates kmmap victim p99 (no QoS)",
        "beyond paper",
        _serve_antagonist_inflates("kmmap"),
    ),
    Claim(
        "Serve",
        "antagonist inflates linux victim p99 (no QoS)",
        "beyond paper",
        _serve_antagonist_inflates("linux"),
    ),
    Claim(
        "Serve",
        "QoS partition restores aquila victim p99",
        "beyond paper",
        _serve_qos_restores("aquila"),
    ),
    Claim(
        "Serve",
        "QoS partition restores kmmap victim p99",
        "beyond paper",
        _serve_qos_restores("kmmap"),
    ),
    Claim(
        "Serve",
        "QoS partition restores linux victim p99",
        "beyond paper",
        _serve_qos_restores("linux"),
    ),
    Claim(
        "Serve",
        "victim p99 under antagonist: aquila < kmmap < linux",
        "beyond paper",
        _serve_engine_order,
    ),
    Claim(
        "Cluster",
        "aquila throughput scales 1 → 4 shards",
        "beyond paper",
        _cluster_scaleout("aquila"),
    ),
    Claim(
        "Cluster",
        "kmmap throughput scales 1 → 4 shards",
        "beyond paper",
        _cluster_scaleout("kmmap"),
    ),
    Claim(
        "Cluster",
        "linux throughput scales 1 → 4 shards",
        "beyond paper",
        _cluster_scaleout("linux"),
    ),
    Claim(
        "Cluster",
        "mid-epoch primary kill loses no client op",
        "beyond paper",
        _cluster_failover_serves_all,
    ),
    Claim(
        "Cluster",
        "degraded 4-shard cluster still beats 1 machine",
        "beyond paper",
        _cluster_failover_degrades_bounded,
    ),
]


#: Figure families (the first ``/`` component of a cell id) covered by a
#: pinned claim above.  Families present in a manifest but absent here
#: surface through :func:`unclaimed_rows` instead of silently vanishing
#: from the summary table.
CLAIMED_FAMILIES = frozenset(
    {
        "fig5a",
        "fig5b",
        "fig6a",
        "fig6b",
        "fig7",
        "fig8a",
        "fig8b",
        "fig8c",
        "fig9",
        "fig10a",
        "fig10b",
        "serve",
        "cluster",
    }
)


def cell_family(cell_id: str) -> str:
    """The figure family of a cell id (its first ``/`` component)."""
    return cell_id.split("/", 1)[0]


def unclaimed_rows(cells: Cells) -> List[Tuple[str, str, str, str, str]]:
    """Summary rows for measured families with no pinned claim.

    A figure family in the manifest that no claim covers still gets one
    row per family — measured cell count, no verdict — so beyond-paper
    data is rendered rather than skipped (its numbers live in the
    measured-figures sections).
    """
    families: Dict[str, int] = {}
    for cell_id in cells:
        family = cell_family(cell_id)
        if family not in CLAIMED_FAMILIES:
            families[family] = families.get(family, 0) + 1
    return [
        (
            family,
            f"{count} measured cells (no pinned claim)",
            "—",
            "see measured figures",
            "",
        )
        for family, count in sorted(families.items())
    ]


def summary_rows(cells: Cells) -> List[Tuple[str, str, str, str, str]]:
    """Evaluate every claim; returns (experiment, claim, paper, measured,
    verdict) rows for the summary table.  Paper claims come first, then
    the pinned beyond-paper expectations.  Raises ``KeyError`` naming the
    first missing cell if the manifest is incomplete."""
    rows = []
    for claim in PAPER_CLAIMS + BEYOND_PAPER_EXPECTATIONS:
        measured, verdict = claim.measure(cells)
        rows.append((claim.experiment, claim.claim, claim.paper, measured, verdict))
    return rows
