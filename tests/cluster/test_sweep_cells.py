"""Cluster sweep family: enumeration and worker invariance."""

from repro.bench.experiments.cluster import enumerate_cells as cluster_cells
from repro.bench.sweep import enumerate_cells, run_sweep


class TestEnumeration:
    def test_grid_shape(self):
        cells = cluster_cells("bench")
        ids = [c["cell_id"] for c in cells]
        assert len(ids) == len(set(ids))
        for engine in ("aquila", "kmmap", "linux"):
            for shards in (1, 2, 4):
                assert f"cluster/{engine}/s{shards}" in ids
            assert f"cluster/{engine}/s4-failover" in ids

    def test_failover_cells_pin_their_kill(self):
        for cell in cluster_cells("figure"):
            if cell["cell_id"].endswith("failover"):
                params = cell["params"]
                assert {"kill_shard", "kill_epoch", "kill_op"} <= set(params)

    def test_registered_in_the_sweep(self):
        cells = enumerate_cells(["cluster"], "bench")
        assert cells and all(c["figure"] == "cluster" for c in cells)


class TestSweepInvariance:
    def test_worker_count_invariant(self, tmp_path):
        serial = run_sweep(
            figures=["cluster"],
            scale="bench",
            workers=1,
            manifest_path=str(tmp_path / "a.jsonl"),
        )
        sharded = run_sweep(
            figures=["cluster"],
            scale="bench",
            workers=2,
            manifest_path=str(tmp_path / "b.jsonl"),
        )
        assert serial.ok and sharded.ok
        assert serial.digests() == sharded.digests()
        assert serial.sweep_digest == sharded.sweep_digest
