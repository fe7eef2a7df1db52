"""Per-cell telemetry: byte-identity, conformance safety, worker isolation.

The observability plane's contracts (DESIGN.md §10), each pinned here
against real sweep cells:

* **byte-identity** — two runs of the same cell produce byte-identical
  deterministic telemetry views;
* **conformance safety** — a sweep cell observed in its telemetry scopes
  and the same cell run plain (as a figure command runs it) reach the
  same state digest on the same code path (the same hit loop, analytic
  windows and faults run);
* **full coverage** — stage attribution accounts for every cycle every
  cell thread charged;
* **worker isolation** — two cells executed back to back in one process
  (the pooled-worker lifecycle) see independent registries and span
  rings, and leak nothing into the caller's registry.
"""

import json

import pytest

from repro.bench.sweep import _execute_cell, enumerate_cells, run_cell
from repro.mmio.aquila import AquilaEngine
from repro.obs import METRICS, TRACER
from repro.obs.events import telemetry_bytes
from repro.sim.conformance import hash_digest
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
        entry = _execute_cell(cell)
        shipped = json.loads(json.dumps(entry["telemetry"]))
        assert telemetry_digest(shipped) == entry["telemetry_digest"]


class TestConformanceSafety:
    def test_state_digest_identical_with_and_without_telemetry(self):
        cell = _cell()
        with_telemetry = _execute_cell(dict(cell))
        without = run_cell(cell)
        assert with_telemetry["state_digest"] == hash_digest(without["state"])

    @pytest.mark.parametrize(
        "cell_id", ["fig10b/shared/aquila/t16", "fig10a/shared/aquila/t4"]
    )
    def test_observing_a_cell_does_not_change_its_path(self, monkeypatch, cell_id):
        engines = _capture(monkeypatch, AquilaEngine)
        cell = _cell(cell_id)
        observed = _execute_cell(dict(cell))
        plain = run_cell(cell)
        assert observed["state_digest"] == hash_digest(plain["state"])
        fields = ("batched_hits", "ff_runs", "ff_hits", "major_faults")
        on, off = ([getattr(e, f) for f in fields] for e in engines)
        assert on == off
        assert on[0] > 0, "the batched hit loop must run in a sweep cell"
        assert on[3] > 0, "the fault protocol must run in a sweep cell"
        metrics = observed["telemetry"]["metrics"]
        assert metrics["engine.aquila.batched_hits"] == on[0]
        assert metrics["engine.aquila.faults.major"] == on[3]
        assert observed["telemetry"]["spans"] == {"finished": 0, "dropped": 0}

class TestAttributionCoverage:
    def test_attribution_covers_every_thread_cycle(self, monkeypatch):
        """Long cells are attributed in full, not just their tail."""
        threads = _capture(monkeypatch, SimThread)
        cell = _cell("fig10b/shared/linux/t1")
        attribution = _execute_cell(cell)["telemetry"]["attribution"]
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
        _execute_cell(_cell())
        after = METRICS.snapshot()
        # No cell-side counters (engine.*, fault.*) appeared outside.
        assert set(after) == before
