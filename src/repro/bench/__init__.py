"""Benchmark harness: experiment stacks, per-figure runners, reporting,
and the sweep orchestrator.

Entry points:

* ``python -m repro.bench <figure>`` — run one figure's sweep cells
  in-process and print its EXPERIMENTS.md section;
* ``python -m repro.bench sweep`` — run every figure cell through the
  multiprocess, resumable orchestrator (:mod:`repro.bench.sweep`);
* ``python -m repro.bench report`` — regenerate EXPERIMENTS.md from a
  sweep manifest (:mod:`repro.bench.report`,
  :mod:`repro.bench.paper_claims`).
"""

from repro.bench.report import (
    Table,
    check_experiments_md,
    generate_experiments_md,
    print_claims,
    ratio_line,
    write_experiments_md,
)
from repro.bench.sweep import (
    DEFAULT_MANIFEST,
    SweepResult,
    enumerate_cells,
    index_manifest,
    load_manifest,
    run_sweep,
    sweep_digest,
)
from repro.bench.setups import (
    make_aquila_stack,
    make_device,
    make_kmmap_stack,
    make_kreon,
    make_linux_stack,
    make_rocksdb,
    scaled_pages,
)

__all__ = [
    "Table",
    "print_claims",
    "ratio_line",
    "check_experiments_md",
    "generate_experiments_md",
    "write_experiments_md",
    "DEFAULT_MANIFEST",
    "SweepResult",
    "enumerate_cells",
    "index_manifest",
    "load_manifest",
    "run_sweep",
    "sweep_digest",
    "make_aquila_stack",
    "make_device",
    "make_kmmap_stack",
    "make_kreon",
    "make_linux_stack",
    "make_rocksdb",
    "scaled_pages",
]
