"""Serve conformance tier: serving layer == across modes and workers.

Every serve cell must produce bit-identical full-state digests across the
three executor modes (unbatched min-heap, epoch-batched, batched +
analytic fast-forward) — including the serve-layer extension of the
digest: admission counters and the exact sojourn stream of every tenant.
That is the DESIGN.md §12 determinism argument made executable: arrival
waits are pure clock advances, admission decisions see identical
completion prefixes in every mode, and completion cycles flow through
one shared arithmetic chain.

The matrix covers all three mmio engines, QoS partitioning policies,
antagonist contention, writes, and the fast-forward engagement mix; a
separate test runs the serve figure family through the sweep
orchestrator at 1/2/4 workers and requires identical per-cell digests.
"""

import pytest

from repro.serve.core import (
    ServeConfig,
    engagement_tenants,
    run_conformance_cell,
    run_serve,
)
from repro.sim.conformance import (
    MODE_COUNTERS,
    assert_fastforward_agrees,
    hash_digest,
)

#: The serve conformance matrix: kwargs for ``run_conformance_cell``.
SERVE_CELLS = {
    "aquila-baseline": dict(engine_kind="aquila"),
    "kmmap-baseline": dict(engine_kind="kmmap"),
    "linux-baseline": dict(engine_kind="linux"),
    "aquila-antagonist": dict(engine_kind="aquila", antagonist_intensity=6),
    "aquila-static": dict(
        engine_kind="aquila", policy="static", antagonist_intensity=6
    ),
    "aquila-proportional": dict(
        engine_kind="aquila", policy="proportional", antagonist_intensity=6
    ),
    "kmmap-static": dict(
        engine_kind="kmmap", policy="static", antagonist_intensity=6
    ),
    "linux-static": dict(
        engine_kind="linux", policy="static", antagonist_intensity=6
    ),
    "aquila-writes": dict(
        engine_kind="aquila", antagonist_intensity=6, write_fraction=0.2
    ),
    "engagement-mix": dict(mix="engagement"),
}


class TestServeConformance:
    """Unbatched == batched == fast-forward, serving layer included."""

    @pytest.mark.parametrize("cell", sorted(SERVE_CELLS), ids=sorted(SERVE_CELLS))
    def test_modes_agree(self, cell):
        digest = assert_fastforward_agrees(
            run_conformance_cell, **SERVE_CELLS[cell]
        )
        # Non-vacuity: the serving layer did complete work in every tenant.
        for name, tenant in digest["serve"].items():
            assert tenant["completed"] > 0, f"tenant {name} served nothing"

    def test_digest_has_serve_section(self):
        digest = run_conformance_cell(batched=True, fastforward=True)
        assert set(digest["serve"]) == {"alpha", "beta"}
        for tenant in digest["serve"].values():
            assert tenant["offered"] == tenant["admitted"] + tenant["shed"]
            assert len(tenant["sojourns"]) == tenant["completed"]

    def test_mode_counters_stay_out_of_the_digest(self):
        digest = run_conformance_cell(batched=True, fastforward=True)
        for counter in MODE_COUNTERS:
            assert counter not in digest["engine"]

    def test_antagonist_perturbs_the_digest(self):
        # The antagonist must actually couple into the victims' state —
        # otherwise the contended cells silently degenerate to baselines.
        baseline = run_conformance_cell(batched=True, fastforward=True)
        contended = run_conformance_cell(
            batched=True, fastforward=True, antagonist_intensity=6
        )
        assert (
            baseline["serve"]["alpha"]["sojourns"]
            != contended["serve"]["alpha"]["sojourns"]
        )


class TestServeFastforwardEngages:
    """Non-vacuity: serve cells must actually reach the analytic path."""

    def test_analytic_windows_fire(self):
        from repro.mmio.files import BackingFile
        from repro.sim.executor import SimThread

        SimThread.reset_ids()
        BackingFile.reset_ids()
        outcome = run_serve(
            ServeConfig(
                tenants=engagement_tenants(),
                engine_kind="aquila",
                cache_pages=256,
                batched=True,
                fastforward=True,
            )
        )
        engine = outcome.stack.engine
        assert engine.ff_runs > 0, "no analytic window retired"
        assert engine.ff_hits >= 64, "analytic windows below MIN_ANALYTIC_RUN"


class TestServeSweepWorkers:
    """Serve cells are worker-count independent through the orchestrator."""

    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        from repro.bench.sweep import run_sweep

        manifest = tmp_path_factory.mktemp("serve-serial") / "manifest.jsonl"
        return run_sweep(
            figures=["serve"], scale="bench", workers=1,
            manifest_path=str(manifest),
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_matches_serial(self, serial, workers, tmp_path):
        from repro.bench.sweep import enumerate_cells, run_sweep

        sharded = run_sweep(
            figures=["serve"],
            scale="bench",
            workers=workers,
            manifest_path=str(tmp_path / "manifest.jsonl"),
        )
        assert sharded.ok and serial.ok
        assert sharded.digests() == serial.digests()
        assert sharded.sweep_digest == serial.sweep_digest
        assert len(sharded.digests()) == len(enumerate_cells(["serve"], "bench"))

    def test_repeat_run_is_bit_identical(self, serial, tmp_path):
        from repro.bench.sweep import run_sweep

        again = run_sweep(
            figures=["serve"], scale="bench", workers=1,
            manifest_path=str(tmp_path / "again.jsonl"),
        )
        assert hash_digest(again.digests()) == hash_digest(serial.digests())
