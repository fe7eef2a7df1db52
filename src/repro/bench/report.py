"""Table rendering and EXPERIMENTS.md generation.

Two consumers:

* the benchmark harness prints the same rows/series the paper's figures
  report (:class:`Table`, :func:`ratio_line`), so ``pytest benchmarks/
  -s`` regenerates every table and figure;
* ``python -m repro.bench report`` regenerates **EXPERIMENTS.md** from a
  sweep manifest (:mod:`repro.bench.sweep`): the summary table comes
  from the pinned claims in :mod:`repro.bench.paper_claims`, the
  per-figure sections from the manifest's measured payloads.  ``report
  --check`` (:func:`check_experiments_md`) diffs the committed doc
  against the regeneration so CI fails on a stale table.
"""

from __future__ import annotations

import difflib
from typing import Any, Dict, List, Optional, Sequence, Tuple


class Table:
    """A fixed-column text table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        """Append one row (cells are str()-ed; floats get 3 significant)."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_format_cell(cell) for cell in cells])

    def render(self) -> str:
        """The formatted table as a string."""
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def show(self) -> None:
        """Print the table with surrounding blank lines."""
        print()
        print(self.render())
        print()


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)


def metrics_table(snapshot: Dict[str, Any], title: str = "metrics") -> Table:
    """Render a :meth:`MetricsRegistry.snapshot` as a two-column table.

    Histograms (dict-valued entries) expand to one row per non-empty
    bucket plus count/sum summary rows.
    """
    table = Table(title, ["metric", "value"])
    for name, value in snapshot.items():
        if isinstance(value, dict) and "buckets" in value:
            table.add_row(f"{name}.count", value["count"])
            table.add_row(f"{name}.sum", value["sum"])
            for bound, count in value["buckets"]:
                if count:
                    table.add_row(f"{name}.le[{bound:g}]", count)
            if value["overflow"]:
                table.add_row(f"{name}.le[+inf]", value["overflow"])
        else:
            table.add_row(name, "n/a" if value is None else value)
    return table


def ratio_line(
    label: str,
    paper_value: Optional[float],
    measured_value: float,
    unit: str = "x",
) -> str:
    """A "claim: paper vs measured" line for EXPERIMENTS.md-style output."""
    paper = f"{paper_value:.2f}{unit}" if paper_value is not None else "n/a"
    return f"  {label}: paper {paper} | measured {measured_value:.2f}{unit}"


def print_claims(title: str, claims: List[str]) -> None:
    """Print a block of paper-vs-measured claim lines."""
    print(f"\n{title}")
    for claim in claims:
        print(claim)
    print()


# ---------------------------------------------------------------------------
# EXPERIMENTS.md generation
# ---------------------------------------------------------------------------
#
# EXPERIMENTS.md is generated end to end: measured tables come from the
# sweep manifest, the summary verdicts from repro.bench.paper_claims, and
# the prose below is the doc's fixed scaffolding.  Edit the prose HERE
# (then `python -m repro.bench report`), never in EXPERIMENTS.md itself —
# `report --check` in CI rejects hand edits.

_HEADER = """
# EXPERIMENTS — paper vs. measured

> Generated by `python -m repro.bench report` — do not edit by hand.
> CI runs `python -m repro.bench report --check`.

Every table and figure of the paper's evaluation (Section 6), the
benchmark that regenerates it, and the measured outcome of one full
sweep (`python -m repro.bench sweep`; cells are seed-deterministic, so
these numbers reproduce exactly, at any worker count).

Scale: datasets are 1/1024 of the paper's (1 paper-GB ≡ 1 MiB); batch
parameters are rescaled to preserve the paper's cache:batch ratios; cycle
costs are unscaled, so cycle-denominated results compare directly.
Throughputs are simulated ops/s at 2.4 GHz.  The reproduction target is
the paper's *shape*: who wins, by roughly what factor, and where
crossovers fall.
"""

_ABLATIONS = """
Ablations (`benchmarks/test_ablations.py`), each matching its paper anchor:

| Ablation | Paper anchor | Measured |
|---|---|---|
| SIMD memcpy off | +1200 cycles/fault (2400 vs 1200, §3.3) | +1200.0 exactly |
| Ring-3 trap instead of exception | +735 cycles/fault (1287−552) | +735.0 exactly |
| Shootdown batch 1 → 64 | one IPI/core per batch (§4.1) | 4.3 → 0.11 IPIs/page |
| Eviction batch 256 (half cache) | hot-set theft | +13% mean access cost vs batch 16 |
| Host syscalls instead of SPDK | 1.53× (§3.3) | see Fig 8(c) above |
"""

_EXTENSIONS = """
## Extensions beyond the paper's figures

| Extension | Bench/tests | Outcome |
|---|---|---|
| Write-workload scalability (§6.5: "We see similar behaviour in writes") | `test_fig10_scalability.py::test_fig10_writes_behave_like_reads` | speedup grows with threads as in reads: the tree lock also serializes dirty marking, as §6.5 notes |
| Cross-process device sharing (§3.3) | `tests/integration/test_shared_device.py` | msync-ed writes visible to other processes; stale caches refresh on invalidation |
| Experiment CLI | `python -m repro.bench <figure>` | regenerates any figure without pytest |
| Sweep orchestrator | `python -m repro.bench sweep --workers N --resume` | every figure cell as a resumable, digest-checked work unit (DESIGN.md §9) |
| Open-loop multi-tenant serving (`repro.serve`) | `python -m repro.bench sweep --figures serve`, `tests/conformance/test_serve.py`, `tests/serve/` | SLO tail latency under an antagonist tenant with admission control and cache QoS; bit-identical across executor modes (DESIGN.md §12) |
"""

_INDEX = """
## Per-experiment index

| ID | Bench target | Workload | Key modules |
|---|---|---|---|
| Table 1 | `tests/workloads/test_ycsb.py::TestTable1` | — | `workloads.ycsb` |
| Fig 5(a) | `benchmarks/test_fig5_rocksdb.py::test_fig5a_dataset_fits_in_memory` | YCSB-C uniform, 1 KB values, dataset ≈ cache, warmed | `kv.rocksdb`, `mmio.*`, `cache.*` |
| Fig 5(b) | `...::test_fig5b_dataset_exceeds_memory` | same, dataset 4× cache | same |
| §6.1 latency | `...::test_fig5_latency_claims` | same | `sim.stats` |
| Fig 6(a) | `benchmarks/test_fig6_ligra.py::test_fig6a_small_cache` | BFS, 25 K-vertex R-MAT (ef=10), cache 44% of graph | `graph.*`, `mmio.*` |
| Fig 6(b) | `...::test_fig6b_larger_cache` | cache 89% of graph | same |
| Fig 6(c) | `...::test_fig6c_time_breakdown` | 16 threads | `sim.clock` categories |
| Fig 7 | `benchmarks/test_fig7_breakdown.py` | YCSB-C uniform, 16 K records / 1 K-page cache | `kv.rocksdb`, `mmio.explicit`, `mmio.aquila` |
| Fig 8(a) | `benchmarks/test_fig8_faults.py::test_fig8a_in_memory_fault_cost` | microbench touch-once, pmem | `workloads.microbench`, engines |
| Fig 8(b) | `...::test_fig8b_out_of_memory_fault_cost` | microbench uniform, cache:data = 8:100 | + eviction paths |
| Fig 8(c) | `...::test_fig8c_device_access_paths` | microbench per I/O path | `devices.io_engines`, `mmio.aquila` |
| Fig 9 | `benchmarks/test_fig9_kreon.py` | YCSB A–F, 1 thread, data 2× cache | `kv.kreon`, `mmio.kmmap` |
| Fig 10(a) | `benchmarks/test_fig10_scalability.py::test_fig10a_in_memory` | microbench touch-once, 1–32 threads, shared/private | engines, `sim.locks` |
| Fig 10(b) | `...::test_fig10b_out_of_memory` | microbench uniform, cache:data = 8:100 | same |
| §6.5 latency | `...::test_fig10_tail_latency` | 32 threads shared | `sim.stats` |
| Serve (beyond paper) | `python -m repro.bench sweep --figures serve` | open-loop multi-tenant mix, 2 victims + antagonist | `serve.*`, `cache.partition`, `sim.stats` |

Sweep cell ids mirror this index (`fig5a/pmem/t4/aquila`,
`fig9/nvme/C/kmmap`, `serve/aquila/static/a6`, …); `python -m
repro.bench sweep --figures fig8` runs any subset.
"""

_DEVIATIONS = """
## Known deviations

**D1 — NVMe saturation point (Fig 5(b)).**  The paper's NVMe runs tie
Aquila with direct I/O because 32 threads saturate the device's ~550 K
IOPS.  Our sweep stops earlier on the thread axis (Python runtime
budget), where both modes are latency-bound and Aquila's lower software
overhead still shows.  The crossover exists in the model: at 32 threads
both modes pin at the IOPS cap (see
`tests/devices/test_devices.py::TestNvme::test_iops_saturation`).

**D2 — Aquila miss-path cost (Fig 8(a)).**  The paper reports a 45.3%
average fault-latency reduction but also reports the Aquila *cache-hit*
fault at 2179 cycles (Fig 8(c)); a miss must cost more than a hit, and
2179 + the 1200-cycle DAX read already exceeds 5380 × (1−0.453) ≈ 2943.
The two paper numbers cannot both hold simultaneously; we calibrated to
the Fig 8(c) anchor (hit = 2179, exact) and accept the smaller measured
reduction in Fig 8(a) (summary table above).

**D3 — Extreme tail ratios (Figs 9, 10).**  The paper's p99/p99.9 gaps
(up to 213×) come from epochal kernel behaviour — reclaim storms,
writeback congestion, lock convoys lasting milliseconds — which this
simulator smooths into steady per-fault costs.  Mean-latency gaps
reproduce; tail gaps are directionally right (Aquila always better) but
strongly understated.

**D4 — Linux private-file out-of-memory at high thread counts (Fig
10(b)).**  Our Linux model's global-LRU direct reclaim lets one thread
evict other threads' pages, and its IPI interference grows with thread
count, so private-file Linux degrades somewhat more than the paper's
(the measured speedup overshoots the paper's 2.84×).  The qualitative
conclusion (private ≪ shared gap) holds.

**D5 — Overshooting Aquila's wins (Figs 5, 7).**  Several ratios land
10–25% above the paper's.  The simulator omits second-order costs that
would slow Aquila on real hardware (guest-mode TLB pressure beyond the
Fig 7 surcharge, interrupt delivery jitter, SPDK poll-loop interference),
so the modeled gap is an upper envelope of the measured one.

**D6 — Figure 6 scale sensitivity.**  At the default 25 K-vertex graph
the 16-thread rounds are short enough that barrier straggler effects
dampen Aquila's win relative to the paper's 4.14× on a 100 M-vertex
graph (a 2× larger graph closes much of the gap).  The trend with
threads and with cache size matches.
"""

_REPRODUCING = """
## Reproducing

```bash
pip install -e .
pytest tests/ -q                            # 1400+ tests
python -m repro.bench sweep --workers 4     # every figure cell, resumable
python -m repro.bench report                # regenerate this file
python -m repro.bench report --check        # verify it is current (CI)
```

A sweep writes `benchmarks/MANIFEST_sweep.jsonl`; re-running with
`--resume` skips completed cells, and `--verify` re-runs them and fails
on any state-digest drift.  Per-cell digests are bit-identical at any
`--workers` count (DESIGN.md §9).
"""


def _md_table(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    """A GitHub-flavoured markdown table as a list of lines."""
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def _ops(value: float) -> str:
    return f"{value:,.0f}"


def _ratio(value: float) -> str:
    return f"{value:.2f}×"


def _kcyc(value: float) -> str:
    return f"{value / 1000:.1f}K"


def load_cell_payloads(manifest_path: str) -> Dict[str, dict]:
    """cell id -> measured payload, from the latest ok record per cell."""
    from repro.bench.sweep import index_manifest, load_manifest

    records = load_manifest(manifest_path)
    index = index_manifest(records)
    if not index:
        raise ValueError(
            f"{manifest_path} has no completed cells "
            "(run: python -m repro.bench sweep)"
        )
    return {cell_id: record["payload"] for cell_id, record in index.items()}


def _provenance(manifest_path: str) -> Tuple[str, int]:
    """(sweep digest, completed cell count) of a manifest."""
    from repro.bench.sweep import index_manifest, load_manifest, sweep_digest

    index = index_manifest(load_manifest(manifest_path))
    return sweep_digest(index), len(index)


def _summary_section(cells: Dict[str, dict]) -> List[str]:
    from repro.bench.paper_claims import summary_rows, unclaimed_rows

    lines = ["## Summary table", ""]
    # Unclaimed beyond-paper families render verdict-less rows instead of
    # silently dropping out of the table.
    lines += _md_table(
        ["Experiment", "Claim", "Paper", "Measured", "Verdict"],
        summary_rows(cells) + unclaimed_rows(cells),
    )
    return lines


def _cell(cells: Dict[str, dict], cell_id: str) -> dict:
    from repro.bench.paper_claims import need_cell

    return need_cell(cells, cell_id)


def _fig5_section(cells: Dict[str, dict]) -> List[str]:
    from repro.bench.paper_claims import fig5_threads

    lines = [
        "### Figures 5(a)/(b) — RocksDB YCSB-C throughput",
        "",
        "Throughput in simulated ops/s; (a) dataset fits the cache, (b)",
        "dataset 4× the cache.",
        "",
    ]
    for variant, title in (("a", "Fig 5(a): in memory"), ("b", "Fig 5(b): 4× cache")):
        rows = []
        for device in ("pmem", "nvme"):
            for threads in fig5_threads(cells, variant):
                prefix = f"fig5{variant}/{device}/t{threads}"
                direct = _cell(cells, f"{prefix}/direct")["throughput"]
                mmap = _cell(cells, f"{prefix}/mmap")["throughput"]
                aquila = _cell(cells, f"{prefix}/aquila")["throughput"]
                rows.append(
                    (
                        device,
                        threads,
                        _ops(direct),
                        _ops(mmap),
                        _ops(aquila),
                        _ratio(aquila / max(1e-9, mmap)),
                        _ratio(aquila / max(1e-9, direct)),
                    )
                )
        if not rows:
            continue
        lines.append(f"**{title}**")
        lines.append("")
        lines += _md_table(
            ["device", "threads", "read/write", "mmap", "Aquila", "Aq/mmap", "Aq/direct"],
            rows,
        )
        lines.append("")
    return lines[:-1]


def _fig6_threads(cells: Dict[str, dict], variant: str, label: str) -> List[int]:
    counts = set()
    for cell_id in cells:
        parts = cell_id.split("/")
        if parts[0] == f"fig6{variant}" and parts[1] == label and len(parts) == 3:
            counts.add(int(parts[2][1:]))
    return sorted(counts)


def _fig6_section(cells: Dict[str, dict]) -> List[str]:
    lines = [
        "### Figure 6 — Ligra BFS execution time",
        "",
        "Execution cycles (millions, lower is better) per engine/device",
        "bar; (a) cache ~44% of the graph, (b) ~89%.",
        "",
    ]
    labels = ["linux-pmem", "aquila-pmem", "linux-nvme", "aquila-nvme", "dram"]
    for variant in ("a", "b"):
        present = [label for label in labels if _fig6_threads(cells, variant, label)]
        if not present:
            continue
        counts = _fig6_threads(cells, variant, present[0])
        rows = []
        for label in present:
            cycles = [
                _cell(cells, f"fig6{variant}/{label}/t{threads}")["execution_cycles"]
                for threads in counts
            ]
            rows.append(
                (label, *[f"{value / 1e6:.1f}M" for value in cycles])
            )
        lines.append(f"**Fig 6({variant})**")
        lines.append("")
        lines += _md_table(["config"] + [f"{threads}t" for threads in counts], rows)
        lines.append("")
    # 6(c) splits CPU time at variant (a)'s largest thread count that has
    # both pmem bars.
    both = set(_fig6_threads(cells, "a", "linux-pmem")) & set(
        _fig6_threads(cells, "a", "aquila-pmem")
    )
    if not both:
        return lines[:-1]
    top = max(both)
    linux = _cell(cells, f"fig6a/linux-pmem/t{top}")
    aquila = _cell(cells, f"fig6a/aquila-pmem/t{top}")
    lines += [
        f"**Fig 6(c)** — {top}-thread CPU-time split (variant (a), pmem):",
        f"mmap {linux['user_pct']:.1f}% user / {linux['system_pct']:.1f}% system"
        f" / {linux['idle_pct']:.1f}% idle; Aquila {aquila['user_pct']:.1f}% user"
        f" / {aquila['system_pct']:.1f}% system / {aquila['idle_pct']:.1f}% idle.",
    ]
    return lines


def _fig7_section(cells: Dict[str, dict]) -> List[str]:
    from repro.bench.paper_claims import fig7_cache_mgmt_ratio, fig7_throughput_gain

    direct = _cell(cells, "fig7/direct")
    aquila = _cell(cells, "fig7/aquila")
    rows = []
    for row in (direct, aquila):
        sections = row["sections"]
        rows.append(
            (
                row["mode"],
                _kcyc(sections["device_io"]),
                _kcyc(sections["cache_mgmt"]),
                _kcyc(sections["get"]),
                _kcyc(sections["total"]),
                _ops(row["throughput"]),
            )
        )
    ratio = fig7_cache_mgmt_ratio(cells)
    gain = fig7_throughput_gain(cells)
    return [
        "### Figure 7 — RocksDB read-path cycle breakdown",
        "",
        "Cycles per get (K), folded from the measured phase's cycle",
        "breakdown, YCSB-C with the dataset 4× the cache.",
        "",
        *_md_table(
            ["mode", "device I/O", "cache mgmt", "get", "total", "throughput"], rows
        ),
        "",
        f"Cache management costs {_ratio(ratio)} more cycles under explicit",
        f"I/O; Aquila's throughput gain is {(gain - 1) * 100:+.0f}%.",
    ]


def _fig8_section(cells: Dict[str, dict]) -> List[str]:
    lines = [
        "### Figure 8 — page-fault cost breakdowns",
        "",
        "Mean cycles per fault (single thread, pmem unless noted).",
        "",
    ]
    rows_a = []
    for engine in ("linux", "aquila"):
        row = cells.get(f"fig8a/{engine}")
        if row is None:
            continue
        breakdown = row["breakdown"]
        device = sum(
            cycles
            for label, cycles in breakdown.items()
            if "device" in label
        )
        rows_a.append(
            (
                engine,
                f"{row['mean_access_cycles']:.0f}",
                f"{breakdown['trap/exception']:.0f}",
                f"{device:.0f}",
            )
        )
    rows_b = [
        (engine, f"{cells[f'fig8b/{engine}']['steady_mean_cycles']:.0f}")
        for engine in ("linux", "aquila")
        if f"fig8b/{engine}" in cells
    ]
    rows_c = [
        (label, f"{cells[f'fig8c/{label}']['mean_access_cycles']:.0f}")
        for label in ("DAX-pmem", "HOST-pmem", "SPDK-NVMe", "HOST-NVMe", "Cache-Hit")
        if f"fig8c/{label}" in cells
    ]
    for title, columns, rows in (
        (
            "**Fig 8(a): in-memory fault cost**",
            ["engine", "mean fault", "trap/exception", "device"],
            rows_a,
        ),
        (
            "**Fig 8(b): fault cost with evictions (steady state)**",
            ["engine", "steady mean fault"],
            rows_b,
        ),
        ("**Fig 8(c): Aquila device-access paths**", ["path", "mean fault"], rows_c),
    ):
        if rows:
            lines += [title, "", *_md_table(columns, rows), ""]
    return lines[:-1]


def _fig9_section(cells: Dict[str, dict]) -> List[str]:
    lines = [
        "### Figure 9 — Kreon over kmmap vs Aquila (YCSB A–F)",
        "",
        "Ratios favour Aquila when >1 (throughput: Aquila/kmmap; latency:",
        "kmmap/Aquila).",
        "",
    ]
    rows = []
    for device in ("nvme", "pmem"):
        workloads = sorted(
            cell_id.split("/")[2]
            for cell_id in cells
            if cell_id.startswith(f"fig9/{device}/") and cell_id.endswith("/aquila")
        )
        for workload in workloads:
            kmmap = _cell(cells, f"fig9/{device}/{workload}/kmmap")
            aquila = _cell(cells, f"fig9/{device}/{workload}/aquila")
            rows.append(
                (
                    device,
                    workload,
                    _ops(kmmap["throughput"]),
                    _ops(aquila["throughput"]),
                    _ratio(aquila["throughput"] / max(1e-9, kmmap["throughput"])),
                    _ratio(
                        kmmap["mean_latency_cycles"]
                        / max(1e-9, aquila["mean_latency_cycles"])
                    ),
                    _ratio(kmmap["p999_cycles"] / max(1e-9, aquila["p999_cycles"])),
                )
            )
    lines += _md_table(
        ["device", "workload", "kmmap", "Aquila", "thr", "avg lat", "p99.9"], rows
    )
    return lines


def _fig10_section(cells: Dict[str, dict]) -> List[str]:
    from repro.bench.paper_claims import fig10_threads

    lines = [
        "### Figure 10 — microbenchmark scalability",
        "",
        "Aquila/Linux throughput speedup; (a) in-memory touch-once, (b)",
        "out-of-memory uniform with evictions.",
        "",
    ]
    rows = []
    for variant in ("a", "b"):
        for sharing in ("shared", "private"):
            for threads in fig10_threads(cells, variant, sharing):
                linux = _cell(cells, f"fig10{variant}/{sharing}/linux/t{threads}")
                aquila = _cell(cells, f"fig10{variant}/{sharing}/aquila/t{threads}")
                rows.append(
                    (
                        f"10({variant})",
                        sharing,
                        threads,
                        _ops(linux["throughput"]),
                        _ops(aquila["throughput"]),
                        _ratio(
                            aquila["throughput"] / max(1e-9, linux["throughput"])
                        ),
                    )
                )
    lines += _md_table(
        ["figure", "file", "threads", "Linux", "Aquila", "speedup"], rows
    )
    return lines


def _serve_section(cells: Dict[str, dict]) -> List[str]:
    lines = [
        "### Serve — multi-tenant tail latency under an antagonist (beyond paper)",
        "",
        "Open-loop serving (`repro.serve`): two victim tenants with Poisson",
        "arrivals and in-memory datasets share one cache and device with a",
        "bursty antagonist sweeping 2× the cache.  Victim percentiles pool",
        "both victims' sojourn (arrival → completion) cycles; shed counts",
        "are drop-tail admission rejections.",
        "",
    ]
    rows = []
    for cell_id in sorted(cid for cid in cells if cid.startswith("serve/")):
        payload = _cell(cells, cell_id)
        tenants = payload["tenants"]
        victim_shed = sum(
            row["shed"] for row in tenants if row["tenant"] != "antagonist"
        )
        antagonist_shed = sum(
            row["shed"] for row in tenants if row["tenant"] == "antagonist"
        )
        rows.append(
            (
                payload["engine"],
                payload["policy"],
                f"{payload['antagonist_intensity']}×",
                f"{payload['victim_p50_cycles']:.0f}",
                f"{payload['victim_p99_cycles']:.0f}",
                f"{payload['victim_p999_cycles']:.0f}",
                victim_shed,
                antagonist_shed,
                payload["evictions"],
            )
        )
    lines += _md_table(
        [
            "engine",
            "policy",
            "antagonist",
            "victim p50",
            "p99",
            "p99.9",
            "victim shed",
            "antag. shed",
            "evictions",
        ],
        rows,
    )
    return lines


def _cluster_section(cells: Dict[str, dict]) -> List[str]:
    lines = [
        "### Cluster — sharded simulation scale-out and failover (beyond paper)",
        "",
        "One logical workload sharded over N machines (`repro.cluster`),",
        "each a full engine/cache/device stack, replicating writes through",
        "the epoch-boundary message bus.  Throughput is total client ops",
        "over the slowest shard's makespan; failover cells kill a seeded",
        "primary mid-epoch, discard its uncommitted outbox (the bounded",
        "data-loss window), and re-route its unserved ops to the promoted",
        "replicas.  Every digest is bit-identical to the single-process",
        "reference (DESIGN.md §13).",
        "",
    ]
    rows = []
    for cell_id in sorted(cid for cid in cells if cid.startswith("cluster/")):
        payload = _cell(cells, cell_id)
        dead = payload["dead_shards"]
        rows.append(
            (
                payload["engine"],
                payload["shards"],
                payload["replication"],
                _ops(payload["throughput"]),
                payload["client_ops"],
                payload["messages"],
                payload["rerouted_ops"],
                ", ".join(str(s) for s in dead) if dead else "—",
            )
        )
    lines += _md_table(
        [
            "engine",
            "shards",
            "repl",
            "ops/s",
            "client ops",
            "repl msgs",
            "rerouted",
            "killed",
        ],
        rows,
    )
    return lines


def _observability_section(manifest_path: str) -> List[str]:
    """The ``## Observability`` section: the sweep's stage attribution.

    Renders only deterministic telemetry — aggregated simulated-cycle
    stage shares from the manifest's per-cell snapshots — never wall
    times or timestamps, so the section is a function of the manifest
    alone and stable under ``report --check`` across machines and reruns.
    """
    import os

    from repro.bench.sweep import index_manifest, load_manifest
    from repro.obs import events as obs_events

    lines = [
        "## Observability",
        "",
        "Every sweep cell ships a deterministic telemetry snapshot through",
        "its manifest record (DESIGN.md §10): per-stage simulated-cycle",
        "attribution folded from every thread's cycle breakdown, metrics,",
        "retries.  The tables below are regenerated from that telemetry;",
        "wall-clock fields are excluded, so they are byte-stable across",
        "machines.",
        "",
    ]
    records = load_manifest(manifest_path)
    index = index_manifest(records)
    snapshots = [
        entry["telemetry"]
        for _, entry in sorted(index.items())
        if entry.get("telemetry")
    ]
    lines.append("**Sweep stage attribution** (all cells, simulated cycles):")
    lines.append("")
    if snapshots:
        stage_cycles = obs_events.merge_stage_cycles(snapshots)
        shares = obs_events.stage_shares({"attribution": {"stages": stage_cycles}})
        total = sum(stage_cycles.values())
        rows = [
            (stage, f"{cycles / 1e6:.1f}M", f"{shares[stage]:.1%}")
            for stage, cycles in sorted(
                stage_cycles.items(), key=lambda item: (-item[1], item[0])
            )
            if cycles > 0
        ]
        lines += _md_table(["stage", "cycles", "share"], rows)
        lines.append("")
        lines.append(
            f"{len(snapshots)} of {len(index)} cells carry telemetry; "
            f"{total / 1e6:.1f}M simulated cycles attributed."
        )
    else:
        lines.append(
            f"_No telemetry in `{os.path.basename(manifest_path)}` — it "
            "predates telemetry; re-run `python -m repro.bench sweep`._"
        )
    return lines


#: The measured-figure section renderer of each sweep runner, in
#: document order.  Each renders whichever of its family's cells are
#: present, so a single-figure CLI run prints the same table rows as
#: EXPERIMENTS.md.
SECTIONS = {
    "fig5": _fig5_section,
    "fig6": _fig6_section,
    "fig7": _fig7_section,
    "fig8": _fig8_section,
    "fig9": _fig9_section,
    "fig10": _fig10_section,
    "serve": _serve_section,
    "cluster": _cluster_section,
}


def render_section(runner: str, cells: Dict[str, dict]) -> str:
    """The markdown section of sweep runner ``runner`` over ``cells``.

    ``cells`` maps cell id to payload and may hold any subset of the
    runner's grid; only the variants, bars and rows present render.
    """
    return "\n".join(SECTIONS[runner](cells))


def _measured_sections(cells: Dict[str, dict]) -> List[str]:
    lines = ["## Measured figures", ""]
    for section in SECTIONS.values():
        lines += section(cells)
        lines.append("")
    return lines[:-1]


def generate_experiments_md(manifest_path: str) -> str:
    """The full EXPERIMENTS.md text, regenerated from a sweep manifest.

    Deterministic given the manifest file: the summary table re-evaluates
    every pinned claim in :mod:`repro.bench.paper_claims` against the
    manifest's payloads, the measured-figure sections render the payloads
    directly, and the prose sections are fixed.  Raises ``KeyError``
    naming the first missing cell when the manifest is incomplete and
    ``ValueError`` when it has no completed cells at all.
    """
    cells = load_cell_payloads(manifest_path)
    digest, count = _provenance(manifest_path)
    # Display the manifest path relative to the cwd when it is inside it,
    # so regeneration via a relative or an absolute path yields the same
    # document text.
    import os

    shown = os.path.relpath(manifest_path)
    if shown.startswith(".."):
        shown = manifest_path
    parts: List[str] = [_HEADER.strip(), ""]
    parts.append(
        f"Provenance: {count} cells from `{shown}` "
        f"(sweep digest `{digest[:16]}`), regenerated by "
        "`python -m repro.bench report`."
    )
    parts.append("")
    parts += _summary_section(cells)
    parts += ["", _ABLATIONS.strip(), ""]
    parts += _measured_sections(cells)
    parts.append("")
    parts += _observability_section(manifest_path)
    parts += ["", _EXTENSIONS.strip(), ""]
    parts += [_INDEX.strip(), ""]
    parts += [_DEVIATIONS.strip(), ""]
    parts += [_REPRODUCING.strip(), ""]
    return "\n".join(parts)


def write_experiments_md(doc_path: str, manifest_path: str) -> None:
    """Regenerate ``doc_path`` from ``manifest_path``."""
    text = generate_experiments_md(manifest_path)
    with open(doc_path, "w") as handle:
        handle.write(text)


def check_experiments_md(doc_path: str, manifest_path: str) -> List[str]:
    """Diff ``doc_path`` against its regeneration; [] when they match.

    This is the ``report --check`` CI gate: a non-empty result means the
    committed doc is stale relative to the committed manifest (or the
    claims table / section generators changed without regenerating).
    """
    expected = generate_experiments_md(manifest_path)
    try:
        with open(doc_path) as handle:
            actual = handle.read()
    except FileNotFoundError:
        return [f"{doc_path} does not exist"]
    if actual == expected:
        return []
    return [
        line.rstrip("\n")
        for line in difflib.unified_diff(
            actual.splitlines(keepends=True),
            expected.splitlines(keepends=True),
            fromfile=f"{doc_path} (committed)",
            tofile=f"{doc_path} (regenerated)",
        )
    ]
