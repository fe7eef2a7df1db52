"""Per-figure experiment runners (paper Section 6).

Each module reproduces one figure, defined once by two entry points
(the sweep, the figure CLI commands and the benchmark suites all run
cells through them):

* ``enumerate_cells(scale)`` — every figure cell as an independent,
  param-complete work unit (``scale="figure"`` for the paper grid,
  ``"bench"`` for the shrunk CI grid);
* ``run_sweep_cell(params)`` — run one enumerated cell, returning its
  JSON-able payload row and the state that :mod:`repro.bench.sweep`
  digests for cross-worker conformance.
"""
