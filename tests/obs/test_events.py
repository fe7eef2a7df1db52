"""Telemetry snapshots: schema, determinism, category folding, stage shares."""

import pytest

from repro.obs import METRICS, TRACER
from repro.obs.events import (
    DEFAULT_STAGE_RULES,
    NONDETERMINISTIC_KEYS,
    collect_cell_telemetry,
    deterministic_view,
    fold_stages,
    merge_stage_cycles,
    stage_shares,
    telemetry_bytes,
    telemetry_digest,
)
from repro.sim.clock import CycleClock
from repro.sim.executor import SimThread


@pytest.fixture(autouse=True)
def _globals_off():
    yield
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()


def _tiny_workload():
    """Charge a few categories + counters deterministically in the active scope."""
    clock = SimThread(core=0).clock
    clock.charge("app.get", 100)
    clock.charge("fault.vma_lookup", 40)
    clock.wait_until(2540, "idle.io.fault")
    SimThread(core=1).clock.charge("tlb.miss_walk", 60)
    # A bare clock belongs to no simulated thread and is not attributed.
    CycleClock().charge("app.get", 1e6)
    METRICS.counter("engine.faults").inc(3)
    METRICS.histogram("lat", buckets=[100.0, 10000.0]).observe_many([50, 2540])


class TestSnapshotShape:
    def test_snapshot_has_every_section(self):
        with TRACER.isolated(enable=False), METRICS.isolated(enable=True):
            _tiny_workload()
            telemetry = collect_cell_telemetry(wall_seconds=1.25)
        assert telemetry["schema"] == 2
        assert telemetry["wall_seconds"] == 1.25
        assert telemetry["spans"] == {"finished": 0, "dropped": 0}
        assert telemetry["metrics"]["engine.faults"] == 3
        assert telemetry["histogram_summaries"]["lat"]["count"] == 2
        stages = telemetry["attribution"]["stages"]
        # app.* -> app, idle.io* -> device_io, fault.* -> fault_path.
        assert stages["app"] == 100.0
        assert stages["device_io"] == 2400.0
        assert stages["fault_path"] == 40.0
        assert stages["tlb"] == 60.0
        assert telemetry["attribution"]["total_cycles"] == 2600.0
        top = telemetry["attribution"]["top_categories"]
        assert top[0] == {"category": "idle.io.fault", "cycles": 2400.0}
        assert [row["category"] for row in top] == [
            "idle.io.fault", "app.get", "tlb.miss_walk", "fault.vma_lookup"
        ]

    def test_traced_spans_are_counted_but_not_attributed(self):
        with TRACER.isolated(enable=True), METRICS.isolated(enable=True):
            clock = SimThread(core=0).clock
            with TRACER.span("op.get", clock):
                clock.charge("app.get", 100)
            telemetry = collect_cell_telemetry()
        assert telemetry["spans"] == {"finished": 1, "dropped": 0}
        assert telemetry["attribution"]["total_cycles"] == 100.0

    def test_stage_rules_first_match_wins(self):
        # Device time under the fault path folds as device_io, not as the
        # generic fault stage, which is what the rule ordering encodes.
        patterns = [pattern for pattern, _ in DEFAULT_STAGE_RULES]
        assert patterns.index("fault.io*") < patterns.index("fault.*")
        stages = fold_stages({"fault.io.dax": 5.0, "fault.trap": 3.0})
        assert stages["device_io"] == 5.0 and stages["fault_path"] == 3.0

    def test_every_category_lands_in_some_stage(self):
        categories = {
            "app.put": 1.0,
            "io.syscall.kernel": 2.0,
            "idle.lock.tree_lock": 4.0,
            "writeback.io.dax": 8.0,
            "reclaim.scan": 16.0,
            "io.retry_backoff": 32.0,
            "atomic.op": 64.0,
        }
        stages = fold_stages(categories)
        assert sum(stages.values()) == sum(categories.values())
        assert stages["syscall"] == 2.0
        assert stages["idle"] == 4.0
        assert stages["writeback"] == 8.0
        assert stages["cache_mgmt"] == 16.0
        assert stages["retry"] == 32.0
        assert stages["other"] == 64.0


class TestDeterminism:
    def test_identical_scopes_are_byte_identical(self):
        def run():
            with METRICS.isolated(enable=True):
                _tiny_workload()
                return collect_cell_telemetry(wall_seconds=0.5)

        first, second = run(), run()
        assert telemetry_bytes(first) == telemetry_bytes(second)
        assert telemetry_digest(first) == telemetry_digest(second)

    def test_wall_seconds_excluded_from_digest(self):
        def run(wall):
            with METRICS.isolated(enable=True):
                _tiny_workload()
                return collect_cell_telemetry(wall_seconds=wall)

        assert telemetry_digest(run(0.1)) == telemetry_digest(run(99.9))

    def test_deterministic_view_drops_reserved_keys(self):
        telemetry = {"schema": 1, "wall_seconds": 3.0, "env": {"pid": 42}}
        view = deterministic_view(telemetry)
        assert view == {"schema": 1}
        for key in NONDETERMINISTIC_KEYS:
            assert key not in view


class TestAggregation:
    def test_stage_shares_normalize(self):
        telemetry = {"attribution": {"stages": {"app": 300.0, "device_io": 100.0}}}
        shares = stage_shares(telemetry)
        assert shares == {"app": 0.75, "device_io": 0.25}

    def test_stage_shares_of_empty_attribution(self):
        assert stage_shares({"attribution": {"stages": {"app": 0.0}}}) == {"app": 0.0}

    def test_merge_stage_cycles_sums_across_snapshots(self):
        snaps = [
            {"attribution": {"stages": {"app": 10.0, "device_io": 5.0}}},
            {"attribution": {"stages": {"app": 1.0, "tlb": 2.0}}},
        ]
        assert merge_stage_cycles(snaps) == {
            "app": 11.0,
            "device_io": 5.0,
            "tlb": 2.0,
        }
