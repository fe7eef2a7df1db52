"""Kreon: log + per-level B-tree store over mmio."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.setups import make_kreon
from repro.common import units
from repro.common.errors import OutOfSpaceError
from repro.sim.executor import SimThread


@pytest.fixture(params=["kmmap", "aquila"])
def store_setup(request):
    store, stack, thread = make_kreon(
        request.param,
        device_kind="pmem",
        cache_pages=512,
        volume_bytes=32 << 20,
        capacity_bytes=128 << 20,
        l0_max_entries=64,
    )
    return store, thread


class TestBasics:
    def test_put_get(self, store_setup):
        store, thread = store_setup
        store.put(thread, b"k", b"v")
        assert store.get(thread, b"k") == b"v"
        assert store.get(thread, b"nope") is None

    def test_overwrite(self, store_setup):
        store, thread = store_setup
        store.put(thread, b"k", b"v1")
        store.put(thread, b"k", b"v2")
        assert store.get(thread, b"k") == b"v2"

    def test_delete(self, store_setup):
        store, thread = store_setup
        store.put(thread, b"k", b"v")
        store.delete(thread, b"k")
        assert store.get(thread, b"k") is None

    def test_spill_preserves_data(self, store_setup):
        store, thread = store_setup
        for i in range(200):   # l0_max_entries=64: several spills
            store.put(thread, b"key-%04d" % i, b"val-%d" % i)
        assert store.spills >= 2
        for i in range(200):
            assert store.get(thread, b"key-%04d" % i) == b"val-%d" % i

    def test_values_never_rewritten(self, store_setup):
        """Spills merge index entries only; the log only grows."""
        store, thread = store_setup
        for i in range(100):
            store.put(thread, b"key-%04d" % i, b"x" * 50)
        tail_after_puts = store.log_tail
        store.spill(thread)
        assert store.log_tail == tail_after_puts

    def test_overwrite_after_spill(self, store_setup):
        store, thread = store_setup
        for i in range(100):
            store.put(thread, b"key-%04d" % i, b"old")
        store.spill(thread)
        store.put(thread, b"key-0050", b"NEW")
        assert store.get(thread, b"key-0050") == b"NEW"
        store.spill(thread)
        assert store.get(thread, b"key-0050") == b"NEW"


class TestOutOfSpace:
    def test_spill_never_overwrites_the_log(self):
        """A spill whose index pages would reach the log tail raises first."""
        store, _, thread = make_kreon(
            "kmmap", volume_bytes=16 * units.PAGE_SIZE, l0_max_entries=1000
        )
        acknowledged = {}
        with pytest.raises(OutOfSpaceError):
            for i in range(1000):
                key, value = b"key-%04d" % i, bytes([i]) * 1000
                store.put(thread, key, value)
                acknowledged[key] = value
        # The log tail sits inside the page the spill would take next.
        assert store.log_tail > (store.allocator.low_water_page - 1) * units.PAGE_SIZE
        with pytest.raises(OutOfSpaceError):
            store.spill(thread)
        assert store.spills == 0
        assert store.allocator.allocated == []
        assert len(store.l0) == len(acknowledged)
        for key, value in acknowledged.items():
            assert store.get(thread, key) == value


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_spill_page_bound_never_undercounts(seed):
    """The pre-spill space check counts every page a spill, cascades included, writes."""
    store, _, thread = make_kreon(
        "kmmap", device_kind="pmem", cache_pages=256,
        volume_bytes=4 << 20, capacity_bytes=64 << 20, l0_max_entries=8,
    )
    store.level_ratio = 2   # level 0 cascades past 16 entries
    rng = random.Random(seed)
    for _ in range(12):
        for _ in range(rng.randrange(1, 8)):
            # 300-byte keys: a fanout of 13, so trees span several pages.
            store.put(thread, (b"%03d" % rng.randrange(100)) * 100, b"v")
        bound = store._spill_page_bound()
        before = len(store.allocator.allocated)
        store.spill(thread)
        assert len(store.allocator.allocated) - before <= bound


class TestScan:
    def test_scan_sorted(self, store_setup):
        store, thread = store_setup
        for i in range(150):
            store.put(thread, b"key-%04d" % i, b"v-%d" % i)
        store.spill(thread)
        result = store.scan(thread, b"key-0030", 10)
        assert [k for k, _ in result] == [b"key-%04d" % i for i in range(30, 40)]
        assert dict(result)[b"key-0035"] == b"v-35"

    def test_scan_merges_l0(self, store_setup):
        store, thread = store_setup
        for i in range(100):
            store.put(thread, b"key-%04d" % i, b"old")
        store.spill(thread)
        store.put(thread, b"key-0042", b"NEW")
        result = dict(store.scan(thread, b"key-0040", 5))
        assert result[b"key-0042"] == b"NEW"


class TestDurability:
    def test_msync_persists_log(self, store_setup):
        store, thread = store_setup
        store.put(thread, b"durable-key", b"durable-value")
        written = store.msync(thread)
        assert written >= 1
        # The log record is on the device.
        raw = store.volume.device.store.read(store.volume.device_offset(0), 64)
        assert b"durable-key" in raw

    def test_stats(self, store_setup):
        store, thread = store_setup
        for i in range(70):
            store.put(thread, b"key-%04d" % i, b"v")
        store.get(thread, b"key-0000")
        stats = store.stats()
        assert stats["puts"] == 70
        assert stats["gets"] == 1
        assert stats["log_bytes"] > 0


@pytest.mark.parametrize("engine_kind", ["kmmap", "aquila"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_model_equivalence(engine_kind, seed):
    store, _, thread = make_kreon(
        engine_kind,
        device_kind="pmem",
        cache_pages=512,
        volume_bytes=32 << 20,
        capacity_bytes=128 << 20,
        l0_max_entries=64,
    )
    rng = random.Random(seed)
    model = {}
    keyspace = [b"key-%03d" % i for i in range(50)]
    for _ in range(200):
        key = rng.choice(keyspace)
        op = rng.random()
        if op < 0.55:
            value = b"v-%d" % rng.randrange(10_000)
            store.put(thread, key, value)
            model[key] = value
        elif op < 0.85:
            assert store.get(thread, key) == model.get(key)
        elif op < 0.95:
            store.delete(thread, key)
            model.pop(key, None)
        else:
            store.spill(thread)
    for key in keyspace:
        assert store.get(thread, key) == model.get(key)
