"""Simulation-kernel throughput benchmark: ``python -m repro.bench.kernelbench``.

Measures how fast the simulator itself runs (wall-clock sim-ops/sec), not
what it simulates.  Each cell is one figure configuration executed three
times — unbatched min-heap scheduler, epoch-batched scheduler, and
batched with the analytic fast-forward — so the report shows absolute
kernel throughput plus the two speedups the conformance tier proves are
free of simulation-visible effects (batched over unbatched, fast-forward
over batched).

Outputs ``BENCH_kernel.json``.  With ``--check`` it compares batched
sim-ops/sec against a committed baseline (``benchmarks/BENCH_baseline.json``)
and exits 1 on a >25% regression in any cell — the CI ``perf`` job runs
exactly that.  ``--check`` also enforces the fast-forward speedup floors
(:data:`FASTFORWARD_FLOORS`): wall-clock *ratios* measured within one
process are machine-independent enough to gate: the in-memory headline
must keep its closed-form speedup, and fast-forward must not slow the
fig10b out-of-memory case, where every mode runs the same fault
protocol.  Absolute numbers stay
machine-dependent; that gate is deliberately loose and the baseline is
refreshed with ``--update-baseline`` whenever the kernel legitimately
changes speed class.

A gate miss is only flagged here.  Where the host time went is answered
by ``benchmarks/e2e/run.py --trace``, which folds host seconds per
``src/repro`` package, and ``run.py compare``, which diffs those folds
between two checkouts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

#: Regression gate: fail if a cell's batched sim-ops/sec drops below this
#: fraction of the committed baseline.
REGRESSION_FRACTION = 0.75

#: The acceptance headline rides on this cell: the Figure 10(a) in-memory
#: shared-file configuration at bench scale, where the re-access tail is
#: long enough that per-run fixed costs (stack construction, plan
#: generation) stop masking the scheduler's marginal cost.
HEADLINE_CELL = "fig10a_shared_16t_benchscale"

#: Minimum fast-forward-over-batched wall-clock speedup per cell
#: (acceptance floors; ``--check`` fails below them).  The headline
#: in-memory cell must fast-forward ≥5x through its closed-form hit
#: windows.  The out-of-memory fig10b cell has almost no all-hit windows
#: and runs the one fault protocol in every mode, so fast-forward can
#: only break even there; its floor (0.9x, run-to-run noise below 1.0x)
#: catches the analytic setup costing more than it saves.
FASTFORWARD_FLOORS: Dict[str, float] = {
    HEADLINE_CELL: 5.0,
    "fig10b_shared_16t": 0.9,
}

#: (name, fig10 ``run_cell`` kwargs).  Each cell runs once per mode.
CELLS: List[tuple] = [
    (
        "fig10a_shared_16t",
        dict(engine_kind="aquila", num_threads=16, shared_file=True,
             in_memory=True, cache_pages=2048, total_accesses=40960),
    ),
    (
        HEADLINE_CELL,
        dict(engine_kind="aquila", num_threads=16, shared_file=True,
             in_memory=True, cache_pages=2048, total_accesses=2621440),
    ),
    (
        "fig10a_private_16t",
        dict(engine_kind="aquila", num_threads=16, shared_file=False,
             in_memory=True, cache_pages=2048, total_accesses=40960),
    ),
    (
        "fig10b_shared_16t",
        dict(engine_kind="aquila", num_threads=16, shared_file=True,
             in_memory=False, cache_pages=512, total_accesses=32768),
    ),
    (
        "fig10b_private_16t",
        dict(engine_kind="aquila", num_threads=16, shared_file=False,
             in_memory=False, cache_pages=512, total_accesses=32768),
    ),
]


#: The three measured modes as (label, batched, fastforward) triples, in
#: the order they run within each repeat round.
_MODES = [
    ("unbatched", False, False),
    ("batched", True, False),
    ("fastforward", True, True),
]


def _run_cell_modes(kwargs: Dict, repeats: int) -> Dict[str, Dict]:
    """Best-of-``repeats`` wall time per mode, modes interleaved.

    Each repeat round runs all three modes back to back (unbatched,
    batched, fast-forward) instead of finishing one mode's repeats before
    starting the next.  On shared hosts the process's wall-clock speed
    drifts over a multi-second benchmark (CPU steal, frequency, allocator
    aging); interleaving puts every mode through the same drift, so the
    *ratios* the floors gate on stay stable even when absolute numbers
    wobble.

    GC is paused around each timed run: the unbatched scheduler allocates
    heavily (one heap entry per op) and collector pauses otherwise add
    tens of percent of run-to-run noise to an 8-second cell.
    """
    import gc

    from repro.bench.experiments.fig10 import run_cell
    from repro.mmio.files import BackingFile
    from repro.sim.executor import SimThread

    best: Dict[str, Optional[float]] = {name: None for name, _, _ in _MODES}
    ops = 0
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            for mode, batched, fastforward in _MODES:
                SimThread.reset_ids()
                BackingFile.reset_ids()
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                row, _, _ = run_cell(
                    batched=batched, fastforward=fastforward, **kwargs
                )
                wall = time.perf_counter() - start
                if gc_was_enabled:
                    gc.enable()
                ops = row["ops"]
                if best[mode] is None or wall < best[mode]:
                    best[mode] = wall
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        mode: {
            "wall_seconds": round(wall, 6),
            "sim_ops_per_sec": round(ops / wall, 1),
            "ops": ops,
        }
        for mode, wall in best.items()
    }


def run_benchmark(repeats: int = 3) -> Dict:
    """Run every cell in all three modes; returns the report dict."""
    cells: Dict[str, Dict] = {}
    for name, kwargs in CELLS:
        modes = _run_cell_modes(kwargs, repeats=repeats)
        unbatched = modes["unbatched"]
        batched = modes["batched"]
        fastforward = modes["fastforward"]
        speedup = batched["sim_ops_per_sec"] / unbatched["sim_ops_per_sec"]
        ff_speedup = (
            fastforward["sim_ops_per_sec"] / batched["sim_ops_per_sec"]
        )
        cells[name] = {
            "config": {k: v for k, v in kwargs.items()},
            "ops": batched["ops"],
            "unbatched": {k: v for k, v in unbatched.items() if k != "ops"},
            "batched": {k: v for k, v in batched.items() if k != "ops"},
            "fastforward": {
                k: v for k, v in fastforward.items() if k != "ops"
            },
            "speedup_batched_over_unbatched": round(speedup, 3),
            "speedup_fastforward_over_batched": round(ff_speedup, 3),
        }
        print(
            f"{name}: {batched['sim_ops_per_sec']:>12,.0f} sim-ops/s batched "
            f"({unbatched['sim_ops_per_sec']:,.0f} unbatched, "
            f"{speedup:.2f}x; fast-forward "
            f"{fastforward['sim_ops_per_sec']:,.0f}, {ff_speedup:.2f}x over "
            "batched)"
        )
    return {
        "schema": 2,
        "repeats": repeats,
        "cells": cells,
        "headline": {
            "cell": HEADLINE_CELL,
            "speedup_batched_over_unbatched": cells[HEADLINE_CELL][
                "speedup_batched_over_unbatched"
            ],
            "speedup_fastforward_over_batched": cells[HEADLINE_CELL][
                "speedup_fastforward_over_batched"
            ],
        },
    }


def check_regressions(report: Dict, baseline: Dict) -> List[str]:
    """Compare batched sim-ops/sec to the baseline; returns failures.

    Also enforces the machine-independent fast-forward speedup floors
    (:data:`FASTFORWARD_FLOORS`) on the fresh report — those are ratios
    within one process, so they need no baseline.
    """
    failures = []
    for name, base_cell in baseline.get("cells", {}).items():
        cell = report["cells"].get(name)
        if cell is None:
            failures.append(f"{name}: present in baseline but not measured")
            continue
        base = base_cell["batched"]["sim_ops_per_sec"]
        now = cell["batched"]["sim_ops_per_sec"]
        if now < REGRESSION_FRACTION * base:
            failures.append(
                f"{name}: batched {now:,.0f} sim-ops/s is "
                f"{now / base:.2%} of baseline {base:,.0f} "
                f"(gate: >= {REGRESSION_FRACTION:.0%})"
            )
    for name, floor in FASTFORWARD_FLOORS.items():
        cell = report["cells"].get(name)
        if cell is None:
            failures.append(
                f"{name}: fast-forward floor cell missing from the report"
            )
            continue
        speedup = cell.get("speedup_fastforward_over_batched", 0.0)
        if speedup < floor:
            failures.append(
                f"{name}: fast-forward speedup {speedup:.2f}x is below the "
                f"{floor:.1f}x floor"
            )
    return failures


def _repeat_count(text: str) -> int:
    """``--repeats``: an integer of at least 1 (best-of-0 has no time)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    """Kernel-benchmark CLI body; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.kernelbench",
        description="Benchmark the simulation kernel (batched vs unbatched).",
    )
    parser.add_argument("--output", default="BENCH_kernel.json",
                        help="where to write the report (default: %(default)s)")
    parser.add_argument("--baseline", default="benchmarks/BENCH_baseline.json",
                        help="committed baseline for --check/--update-baseline")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any cell regresses >25%% vs baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the fresh report over the baseline file")
    parser.add_argument("--repeats", type=_repeat_count, default=3,
                        help="wall-time repeats per cell (best is kept)")
    args = parser.parse_args(argv)

    report = run_benchmark(repeats=args.repeats)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.update_baseline:
        with open(args.baseline, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"updated baseline {args.baseline}")
        return 0

    if args.check:
        try:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
        except OSError as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        failures = check_regressions(report, baseline)
        if failures:
            print("kernel throughput regressions:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.baseline} "
              f"(gate: {REGRESSION_FRACTION:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
