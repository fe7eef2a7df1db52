"""RocksDB facade: end-to-end store semantics in all three modes."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.setups import make_rocksdb
from repro.common import units
from repro.sim.executor import SimThread

MODES = ["direct", "mmap", "aquila"]


@pytest.fixture(params=MODES)
def db(request):
    store, _ = make_rocksdb(
        request.param,
        cache_pages=256,
        capacity_bytes=512 * units.MIB,
        memtable_bytes=8 * units.KIB,
        sst_bytes=16 * units.KIB,
    )
    return store


class TestBasics:
    def test_put_get(self, db):
        thread = SimThread(core=0, tid=0)
        db.put(thread, b"k", b"v")
        assert db.get(thread, b"k") == b"v"
        assert db.get(thread, b"missing") is None

    def test_overwrite(self, db):
        thread = SimThread(core=0, tid=0)
        db.put(thread, b"k", b"v1")
        db.put(thread, b"k", b"v2")
        assert db.get(thread, b"k") == b"v2"

    def test_delete(self, db):
        thread = SimThread(core=0, tid=0)
        db.put(thread, b"k", b"v")
        db.delete(thread, b"k")
        assert db.get(thread, b"k") is None

    def test_get_spans_memtable_and_ssts(self, db):
        thread = SimThread(core=0, tid=0)
        for i in range(200):   # 200 * ~72B > the 8 KiB memtable
            db.put(thread, b"key-%04d" % i, b"val-%04d" % i + b"x" * 64)
        assert db.stats()["flushes"] > 0
        for i in range(200):
            assert db.get(thread, b"key-%04d" % i) == b"val-%04d" % i + b"x" * 64

    def test_delete_survives_flush_and_compaction(self, db):
        thread = SimThread(core=0, tid=0)
        for i in range(100):
            db.put(thread, b"key-%04d" % i, b"v")
        db.delete(thread, b"key-0050")
        db.flush(thread)
        db.compact_all(thread)
        assert db.get(thread, b"key-0050") is None
        assert db.get(thread, b"key-0051") == b"v"


class TestScan:
    def test_scan_sorted(self, db):
        thread = SimThread(core=0, tid=0)
        for i in range(100):
            db.put(thread, b"key-%04d" % i, b"v-%d" % i)
        db.flush(thread)
        result = db.scan(thread, b"key-0020", 10)
        assert [k for k, _ in result] == [b"key-%04d" % i for i in range(20, 30)]

    def test_scan_merges_memtable_over_sst(self, db):
        thread = SimThread(core=0, tid=0)
        for i in range(50):
            db.put(thread, b"key-%04d" % i, b"old")
        db.flush(thread)
        db.put(thread, b"key-0025", b"NEW")
        result = dict(db.scan(thread, b"key-0024", 3))
        assert result[b"key-0025"] == b"NEW"

    def test_scan_skips_deleted(self, db):
        thread = SimThread(core=0, tid=0)
        for i in range(10):
            db.put(thread, b"key-%04d" % i, b"v")
        db.delete(thread, b"key-0003")
        result = db.scan(thread, b"key-0000", 10)
        assert b"key-0003" not in dict(result)


class TestDurability:
    def test_wal_written(self, db):
        thread = SimThread(core=0, tid=0)
        writes_before = None
        db.put(thread, b"k", b"v")
        # Every put appends to the WAL on the device.
        assert db.env.__class__.__name__ in ("DirectIOEnv", "MmioEnv")
        assert db.puts == 1


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_model_equivalence_random_workload(mode, seed):
    """RocksDB behaves exactly like a dict under random put/get/delete."""
    db, _ = make_rocksdb(
        mode,
        cache_pages=256,
        capacity_bytes=512 * units.MIB,
        memtable_bytes=8 * units.KIB,
        sst_bytes=16 * units.KIB,
    )
    thread = SimThread(core=0, tid=0)
    rng = random.Random(seed)
    model = {}
    keyspace = [b"key-%03d" % i for i in range(60)]
    for _ in range(250):
        key = rng.choice(keyspace)
        op = rng.random()
        if op < 0.5:
            value = b"v-%d" % rng.randrange(10_000)
            db.put(thread, key, value)
            model[key] = value
        elif op < 0.8:
            assert db.get(thread, key) == model.get(key)
        elif op < 0.9:
            db.delete(thread, key)
            model.pop(key, None)
        else:
            db.flush(thread)
            db.compact_all(thread)
    for key in keyspace:
        assert db.get(thread, key) == model.get(key), key
