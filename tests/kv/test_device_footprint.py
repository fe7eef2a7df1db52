"""RocksDB keeps each device byte once: no dead extents, no private zero pages."""

import tracemalloc

import pytest

from repro.bench.experiments import fig5
from repro.bench.setups import make_rocksdb
from repro.common import units
from repro.common.units import ZERO_PAGE
from repro.sim.executor import SimThread


def _extent_pages(file):
    first = file.base_offset // units.PAGE_SIZE
    return range(first, first + units.pages(file.size_bytes))


@pytest.mark.parametrize("mode", fig5.MODES)
def test_fig5b_cell_stores_only_live_extents(mode, monkeypatch):
    built = []

    def capture(*args, **kwargs):
        built.append(make_rocksdb(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(fig5, "make_rocksdb", capture)
    (cell,) = [
        cell for cell in fig5.enumerate_cells("bench")
        if cell["cell_id"] == f"fig5b/pmem/t1/{mode}"
    ]
    fig5.run_sweep_cell(cell["params"])
    ((db, stack),) = built

    assert db.lsm.bytes_compacted > 0   # compaction freed extents
    live = set()
    for file in db.wal_files + [table.file for level in db.lsm.levels for table in level]:
        live.update(_extent_pages(file))
    pages = stack.device.store.snapshot()
    assert set(pages) <= live
    zero_copies = [i for i, page in pages.items() if page == ZERO_PAGE and page is not ZERO_PAGE]
    assert zero_copies == []
    # Most of the preallocated WAL segment is still unwritten zeros.
    wal = db.wal_files[0]
    assert sum(pages[i] is ZERO_PAGE for i in _extent_pages(wal)) > units.pages(wal.size_bytes) // 2


@pytest.mark.parametrize("mode", fig5.MODES)
def test_first_put_streams_the_wal_preallocation(mode):
    db, _ = make_rocksdb(mode, cache_pages=64, capacity_bytes=64 * units.MIB)
    thread = SimThread(core=0, tid=0)
    tracemalloc.start()
    try:
        db.put(thread, b"key", b"value")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert db.wal_files[0].size_bytes == 16 * units.MIB
    assert peak < 4 * units.MIB
    assert db.get(thread, b"key") == b"value"
