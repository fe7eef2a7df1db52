"""A finished cell leaves no reference cycle (DESIGN.md §9).

A sweep worker runs many cells in one process.  When no object of a
cell's stack (engine, cache, frames, device pages) sits on a reference
cycle, reference counting frees the whole stack the moment
``run_cell`` returns, instead of whenever CPython next runs a full
collection — so a worker carries one cell's memory at a time.  Each cell
below runs with the cyclic collector off; the collection after it must
find nothing to free.
"""

import gc

import pytest

from repro.bench.sweep import FIGURE_MODULES, enumerate_cells, run_unit

#: One bench-scale cell per runner; together they cover Linux mmap
#: (fig6, fig8, fig10), Aquila (fig5, fig7, serve, cluster) and Kreon
#: (fig9).
CELLS = {
    "fig5": "fig5a/pmem/t1/aquila",
    "fig6": "fig6a/linux-pmem/t1",
    "fig7": "fig7/aquila",
    "fig8": "fig8a/linux",
    "fig9": "fig9/pmem/A/kmmap",
    "fig10": "fig10b/shared/linux/t1",
    "serve": "serve/aquila/none/a0",
    "cluster": "cluster/aquila/s1",
}


@pytest.fixture(scope="module")
def bench_cells():
    return {cell["cell_id"]: cell for cell in enumerate_cells(scale="bench")}


def test_every_runner_is_covered(bench_cells):
    assert sorted(CELLS) == sorted(FIGURE_MODULES)
    for runner, cell_id in CELLS.items():
        assert bench_cells[cell_id]["runner"] == runner


@pytest.mark.parametrize("cell_id", list(CELLS.values()))
def test_cell_leaves_no_cyclic_garbage(bench_cells, cell_id):
    gc.collect()
    gc.disable()
    try:
        record = run_unit(bench_cells[cell_id])
        assert record["status"] == "ok", record.get("error")
        assert gc.collect() == 0
    finally:
        gc.enable()
