"""Metrics registry: primitives, disabled no-ops, pull probes, snapshots."""

import pytest

from repro.obs import METRICS
from repro.obs.metrics import COUNTER_WRAP, Counter, Histogram, MetricsRegistry

#: What an enabled registry with no lock activity reports for its lock totals.
ZERO_LOCKS = {"locks.acquisitions": 0, "locks.contended": 0, "locks.wait_cycles": 0.0}


@pytest.fixture
def registry():
    r = MetricsRegistry()
    r.enable()
    return r


@pytest.fixture(autouse=True)
def _global_registry_off():
    yield
    METRICS.disable()
    METRICS.reset()


class TestCounter:
    def test_inc(self, registry):
        c = registry.counter("c")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_wraps_like_hardware(self, registry):
        c = registry.counter("c")
        c.inc(COUNTER_WRAP - 2)
        c.inc(5)
        assert c.value == 3

    def test_negative_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_reset(self, registry):
        c = registry.counter("c")
        c.inc(9)
        c.reset()
        assert c.value == 0


class TestHistogram:
    def test_bucketing(self, registry):
        h = registry.histogram("h", buckets=[10, 100])
        h.observe_many([1, 10, 11, 100, 5000])
        # first bound >= value: 1 and 10 land in le[10], 11 and 100 in le[100]
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.sum == 5122

    def test_as_dict(self, registry):
        h = registry.histogram("h", buckets=[2.0])
        h.observe(1)
        h.observe(3)
        assert h.as_dict() == {
            "buckets": [(2.0, 1)],
            "overflow": 1,
            "count": 2,
            "sum": 4.0,
        }

    def test_bad_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad1", buckets=[])
        with pytest.raises(ValueError):
            registry.histogram("bad2", buckets=[10, 2])


class TestHistogramQuantiles:
    def test_empty_recorder_has_no_quantiles(self, registry):
        h = registry.histogram("h", buckets=[10, 100])
        assert h.mean() is None
        assert h.quantile(0.5) is None
        assert h.summary() == {
            "count": 0,
            "sum": 0.0,
            "mean": None,
            "p50": None,
            "p90": None,
            "p99": None,
            "p999": None,
        }

    def test_single_sample_pins_every_quantile(self, registry):
        h = registry.histogram("h", buckets=[2.0, 8.0])
        h.observe(4.0)
        summary = h.summary()
        # One sample: every percentile interpolates inside its bucket,
        # landing on the same value for p50 through p999.
        assert summary["p50"] == summary["p999"]
        assert 2.0 < summary["p50"] <= 8.0
        assert summary["mean"] == 4.0

    def test_p999_on_tiny_sample_count_stays_in_range(self, registry):
        h = registry.histogram("h", buckets=[10.0, 100.0, 1000.0])
        h.observe_many([5, 50, 500])
        p999 = h.quantile(0.999)
        assert 100.0 < p999 <= 1000.0   # the max sample's bucket

    def test_overflow_quantile_reports_last_bound(self, registry):
        h = registry.histogram("h", buckets=[4.0, 8.0])
        h.observe_many([1, 2, 1e9])
        assert h.quantile(0.999) == 8.0   # overflow clamps to the last bound

    def test_quantile_out_of_range_rejected(self, registry):
        h = registry.histogram("h", buckets=[1.0])
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantiles_are_monotone(self, registry):
        h = registry.histogram("h", buckets=[10.0, 100.0, 1000.0, 10000.0])
        h.observe_many([3, 30, 30, 300, 300, 300, 3000])
        values = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 0.999)]
        assert values == sorted(values)


class TestIsolated:
    def test_isolated_scope_restores_outer_metrics(self, registry):
        registry.counter("outer.count").inc(3)
        with registry.isolated(enable=True):
            registry.counter("inner.count").inc(7)
            assert registry.snapshot() == {"inner.count": 7, **ZERO_LOCKS}
        assert registry.snapshot() == {"outer.count": 3, **ZERO_LOCKS}

    def test_isolated_restores_disabled_flag(self):
        registry = MetricsRegistry()   # disabled
        with registry.isolated(enable=True):
            registry.counter("c").inc(2)
            assert registry.snapshot() == {"c": 2, **ZERO_LOCKS}
        registry.counter("c2").inc(5)  # mutation is a no-op again outside
        assert registry.snapshot() == {"c2": 0}

    def test_isolated_drops_probes_and_prefixes(self, registry):
        registry.register_probe("outer.probe", lambda: 1)
        assert registry.unique_prefix("dev") == "dev"
        with registry.isolated(enable=True):
            assert registry.snapshot() == ZERO_LOCKS
            # Fresh prefix table: the same prefix is available again.
            assert registry.unique_prefix("dev") == "dev"
        assert registry.snapshot() == {"outer.probe": 1, **ZERO_LOCKS}
        assert registry.unique_prefix("dev") == "dev#1"


class TestRegistry:
    def test_get_or_create_returns_same_instance(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_disabled_mutators_are_noops(self):
        registry = MetricsRegistry()   # disabled
        c = registry.counter("c")
        c.inc(5)
        h = registry.histogram("h", buckets=[1])
        h.observe(0.5)
        assert c.value == 0 and h.count == 0

    def test_disabled_bind_is_noop(self):
        registry = MetricsRegistry()
        registry.bind_object("obj", object(), {"f": lambda o: 1})
        registry.register_probe("p", lambda: 1)
        assert registry.snapshot() == {}

    def test_bind_object_pull_probes(self, registry):
        class Engine:
            faults = 3

        engine = Engine()
        registry.bind_object(
            "engine.test", engine, {"faults": "faults", "twice": lambda e: e.faults * 2}
        )
        engine.faults = 7   # probes sample at snapshot time, not bind time
        snap = registry.snapshot()
        assert snap["engine.test.faults"] == 7
        assert snap["engine.test.twice"] == 14

    def test_unique_prefix_suffixes_duplicates(self, registry):
        assert registry.unique_prefix("dev") == "dev"
        assert registry.unique_prefix("dev") == "dev#1"
        assert registry.unique_prefix("dev") == "dev#2"

    def test_probe_exception_reports_none(self, registry):
        def broken():
            raise RuntimeError("torn down")

        registry.register_probe("broken", broken)
        assert registry.snapshot() == {"broken": None, **ZERO_LOCKS}

    def test_snapshot_sorted_and_mixed(self, registry):
        registry.counter("b.count").inc(2)
        registry.register_probe("a.level", lambda: 1.5)
        h = registry.histogram("c.hist", buckets=[10])
        h.observe(4)
        snap = registry.snapshot()
        assert list(snap) == ["a.level", "b.count", "c.hist", *ZERO_LOCKS]
        assert snap["c.hist"]["count"] == 1

    def test_reset_drops_everything(self, registry):
        registry.counter("c").inc()
        registry.register_probe("p", lambda: 1)
        registry.reset()
        assert registry.snapshot() == ZERO_LOCKS


class TestEnableHelpers:
    def test_enable_metrics_binds_lock_stats(self):
        from repro import obs

        obs.enable_metrics()
        snap = obs.METRICS.snapshot()
        assert "locks.acquisitions" in snap
        assert "locks.contended" in snap
        assert "locks.wait_cycles" in snap


class TestLockTotals:
    def test_lock_totals_scope_with_the_registry(self):
        from repro.sim.clock import CycleClock
        from repro.sim.locks import SpinlockTimeline

        registry = MetricsRegistry()
        registry.enable()
        registry.locks.acquisitions = 5
        with registry.isolated(enable=True):
            assert registry.snapshot() == ZERO_LOCKS
        assert registry.snapshot()["locks.acquisitions"] == 5
        registry.reset()
        assert registry.snapshot()["locks.acquisitions"] == 0

        # The lock timelines add to the process registry's current scope.
        lock, a, b = SpinlockTimeline(), CycleClock(), CycleClock()
        with METRICS.isolated(enable=True):
            lock.acquire(a, 1)
            a.charge("hold", 100)
            lock.release(a, 1)
            lock.acquire(b, 2)
            lock.release(b, 2)
            snap = METRICS.snapshot()
        assert snap["locks.acquisitions"] == 2 and snap["locks.contended"] == 1
        assert snap["locks.wait_cycles"] == lock.total_wait_cycles == 100.0

    def test_disabled_registry_reports_no_lock_totals(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {}
