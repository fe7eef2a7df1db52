"""Tiny-scale smoke coverage for every experiment runner.

The full-scale runs live in ``benchmarks/``; these keep the experiment
code paths under `pytest tests/` at minimal cost.
"""

import pytest

from repro.bench.experiments.fig5 import run_cell as fig5_cell
from repro.bench.experiments.fig6 import heap_pages_for, run_bfs_config
from repro.bench.experiments.fig9 import run_cell as fig9_cell
from repro.bench.experiments.fig10 import run_cell as fig10_cell


class TestFig5Runner:
    @pytest.mark.parametrize("mode", ["direct", "mmap", "aquila"])
    def test_cell_shape(self, mode):
        cell = fig5_cell(
            mode, "pmem", record_count=512, cache_pages=256,
            num_threads=2, ops_per_thread=40, warmup_ops=40,
        )
        assert cell["throughput"] > 0
        assert cell["not_found"] == 0
        assert cell["mean_latency_cycles"] > 0
        assert cell["p999_cycles"] >= cell["mean_latency_cycles"]


class TestFig6Runner:
    def test_heap_pages_formula(self):
        # offsets + targets + parents words, 8 bytes each, plus slack.
        pages = heap_pages_for(1000, 10)
        assert pages >= (8 * (1000 + 1 + 10_000 + 1000)) // 4096

    @pytest.mark.parametrize("engine", ["dram", "linux", "aquila"])
    def test_config_runs(self, engine):
        cell = run_bfs_config(engine, "pmem", num_vertices=500,
                              num_threads=2, cache_fraction=0.5)
        assert cell["visited"] > 1
        assert cell["execution_cycles"] > 0
        total_pct = cell["user_pct"] + cell["system_pct"] + cell["idle_pct"]
        assert total_pct == pytest.approx(100.0, abs=0.1)


class TestFig9Runner:
    @pytest.mark.parametrize("engine", ["kmmap", "aquila"])
    def test_cell_shape(self, engine):
        cell = fig9_cell(engine, "pmem", "C", record_count=512,
                         cache_pages=256, operations=60)
        assert cell["throughput"] > 0
        assert cell["not_found"] == 0
        assert cell["store_stats"]["gets"] >= 50


class TestFig10Runner:
    def test_sweep_shape(self):
        for threads in (1, 2):
            linux, aquila = (
                fig10_cell(engine, threads, True, True,
                           cache_pages=256, total_accesses=128)[0]
                for engine in ("linux", "aquila")
            )
            assert linux["threads"] == aquila["threads"] == threads
            assert aquila["throughput"] / max(linux["throughput"], 1e-9) > 0
            assert linux["ops"] == aquila["ops"]
