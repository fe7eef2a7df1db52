"""Per-cell telemetry: byte-identity, conformance safety, worker isolation.

The observability plane's contracts (DESIGN.md §10), each pinned here
against real sweep cells:

* **byte-identity** — two runs of the same cell produce byte-identical
  deterministic telemetry views;
* **conformance safety** — telemetry on/off changes no state digest and
  no code path (the same hit loop, analytic windows and faults run);
* **full coverage** — stage attribution accounts for every cycle every
  cell thread charged;
* **worker isolation** — two cells executed back to back in one process
  (the pooled-worker lifecycle) see independent registries and span
  rings, and leak nothing into the orchestrator's own metrics.
"""

import json
import os

import pytest

from repro.bench.sweep import _execute_cell, enumerate_cells, run_sweep
from repro.mmio.aquila import AquilaEngine
from repro.obs import METRICS, TRACER
from repro.obs.events import telemetry_bytes
from repro.sim.executor import SimThread


@pytest.fixture(autouse=True)
def _globals_off():
    yield
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()


def _cell(cell_id="fig10a/shared/aquila/t4"):
    cells = enumerate_cells([cell_id.split("/")[0]], "bench")
    (cell,) = [c for c in cells if c["cell_id"] == cell_id]
    return cell


def _capture(monkeypatch, cls):
    """Record every ``cls`` instance constructed from now on."""
    instances = []
    init = cls.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        instances.append(self)

    monkeypatch.setattr(cls, "__init__", recording_init)
    return instances


class TestByteIdentity:
    def test_same_cell_twice_is_byte_identical(self):
        cell = _cell()
        cell["obs"] = {"telemetry": True}
        first = _execute_cell(dict(cell))
        second = _execute_cell(dict(cell))
        assert telemetry_bytes(first["telemetry"]) == telemetry_bytes(
            second["telemetry"]
        )
        assert first["telemetry_digest"] == second["telemetry_digest"]
        # wall_seconds is in the snapshot but excluded from the bytes.
        assert "wall_seconds" in first["telemetry"]

    def test_telemetry_json_round_trip_keeps_digest(self):
        from repro.obs.events import telemetry_digest

        cell = _cell()
        cell["obs"] = {"telemetry": True}
        entry = _execute_cell(cell)
        shipped = json.loads(json.dumps(entry["telemetry"]))
        assert telemetry_digest(shipped) == entry["telemetry_digest"]


class TestConformanceSafety:
    def test_state_digest_identical_with_and_without_telemetry(self):
        cell = _cell()
        with_telemetry = _execute_cell({**cell, "obs": {"telemetry": True}})
        without = _execute_cell({**cell, "obs": {"telemetry": False}})
        assert with_telemetry["state_digest"] == without["state_digest"]
        assert "telemetry" not in without

    @pytest.mark.parametrize(
        "cell_id", ["fig10b/shared/aquila/t16", "fig10a/shared/aquila/t4"]
    )
    def test_observing_a_cell_does_not_change_its_path(self, monkeypatch, cell_id):
        engines = _capture(monkeypatch, AquilaEngine)
        cell = _cell(cell_id)
        observed = _execute_cell({**cell, "obs": {"telemetry": True}})
        plain = _execute_cell({**cell, "obs": {"telemetry": False}})
        assert observed["state_digest"] == plain["state_digest"]
        fields = ("batched_hits", "ff_runs", "ff_hits", "major_faults")
        on, off = ([getattr(e, f) for f in fields] for e in engines)
        assert on == off
        assert on[0] > 0, "the batched hit loop must run in a sweep cell"
        assert on[3] > 0, "the fault protocol must run in a sweep cell"
        metrics = observed["telemetry"]["metrics"]
        assert metrics["engine.aquila.batched_hits"] == on[0]
        assert metrics["engine.aquila.faults.major"] == on[3]
        assert observed["telemetry"]["spans"] == {"finished": 0, "dropped": 0}

    def test_profiling_does_not_change_state_digest(self, tmp_path):
        cell = _cell()
        plain = _execute_cell({**cell, "obs": {"telemetry": True}})
        profiled = _execute_cell(
            {**cell, "obs": {"telemetry": True, "profile_dir": str(tmp_path)}}
        )
        assert profiled["state_digest"] == plain["state_digest"]
        assert profiled["telemetry_digest"] == plain["telemetry_digest"]


class TestAttributionCoverage:
    def test_attribution_covers_every_thread_cycle(self, monkeypatch):
        """Long cells are attributed in full, not just their tail."""
        threads = _capture(monkeypatch, SimThread)
        cell = _cell("fig10b/shared/linux/t1")
        attribution = _execute_cell({**cell, "obs": {"telemetry": True}})[
            "telemetry"
        ]["attribution"]
        charged = sum(thread.clock.breakdown.total() for thread in threads)
        assert charged > 0
        assert attribution["total_cycles"] == pytest.approx(charged, rel=1e-12)
        assert sum(attribution["stages"].values()) == pytest.approx(
            charged, rel=1e-9
        )


class TestWorkerIsolation:
    def test_two_cells_one_process_have_independent_telemetry(self):
        """The pooled-worker lifecycle: consecutive cells must not leak."""
        cells = enumerate_cells(["fig10a"], "bench")
        small = [c for c in cells if c["cell_id"] == "fig10a/shared/aquila/t1"][0]
        large = [c for c in cells if c["cell_id"] == "fig10a/shared/aquila/t16"][0]
        small["obs"] = large["obs"] = {"telemetry": True}
        # Baseline: each cell alone in a fresh call.
        alone_small = _execute_cell(dict(small))["telemetry"]
        # Back to back, same process, reversed and repeated orders.
        first = _execute_cell(dict(large))["telemetry"]
        second = _execute_cell(dict(small))["telemetry"]
        assert telemetry_bytes(second) == telemetry_bytes(alone_small)
        # The two cells really differ, so identical bytes above cannot be
        # an artifact of the cells coinciding.
        assert (
            first["attribution"]["total_cycles"]
            != second["attribution"]["total_cycles"]
        )

    def test_cells_leak_nothing_into_orchestrator_registry(self):
        from repro import obs

        obs.enable_metrics()
        before = set(METRICS.snapshot())
        cell = _cell()
        cell["obs"] = {"telemetry": True}
        _execute_cell(cell)
        after = METRICS.snapshot()
        # No cell-side counters (engine.*, fault.*) appeared outside.
        assert set(after) == before

    def test_orchestrator_counters_survive_serial_sweep(self, tmp_path):
        from repro import obs

        obs.enable_metrics()
        result = run_sweep(
            figures=["fig8c"],
            scale="bench",
            workers=1,
            manifest_path=str(tmp_path / "m.jsonl"),
        )
        assert result.ok
        snap = METRICS.snapshot()
        assert snap["sweep.cells.completed"] == len(result.entries)
        assert snap["sweep.cells.failed"] == 0


class TestProfileArtifacts:
    def test_profile_artifacts_content_addressed(self, tmp_path):
        cell = _cell()
        cell["obs"] = {"telemetry": True, "profile_dir": str(tmp_path)}
        entry = _execute_cell(cell)
        paths = entry["profile"]
        assert os.path.basename(paths["pstats"]) == f"{cell['config_digest']}.pstats"
        with open(paths["hotspots"]) as handle:
            hotspots = json.load(handle)
        assert hotspots["config_digest"] == cell["config_digest"]
        assert hotspots["cell_id"] == cell["cell_id"]
        rows = hotspots["category_hotspots"]
        assert rows, "category hotspots must be populated"
        assert rows[0]["cycles"] == max(row["cycles"] for row in rows)
        assert set(rows[0]) == {"category", "cycles", "share"}
        assert hotspots["top_functions"], "cProfile rows must be populated"
        import pstats

        stats = pstats.Stats(paths["pstats"])
        assert stats.total_calls > 0

    def test_sweep_profile_flag_writes_next_to_manifest(self, tmp_path):
        result = run_sweep(
            figures=["fig8c"],
            scale="bench",
            workers=1,
            manifest_path=str(tmp_path / "m.jsonl"),
            profile=True,
        )
        assert result.ok
        profile_dir = tmp_path / "profiles"
        names = sorted(os.listdir(profile_dir))
        digests = {entry["config_digest"] for entry in result.entries}
        assert {n.split(".")[0] for n in names} == digests


class TestLogDashboard:
    def test_log_dashboard_output_is_deterministic(self, tmp_path):
        import io

        from repro.obs.dashboard import LogDashboard

        def run(directory):
            stream = io.StringIO()
            run_sweep(
                figures=["fig8c"],
                scale="bench",
                workers=1,
                manifest_path=str(directory / "m.jsonl"),
                dashboard=LogDashboard(stream=stream),
            )
            return stream.getvalue()

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert first == second
        assert "[dash] start" in first
        assert "[dash] finish" in first
        assert "spans=" in first   # telemetry surfaced per cell
