"""Leveled LSM tree: merging, compaction, invariants."""

import pytest

from repro.common import units
from repro.hw.machine import Machine
from repro.kv.env import DirectIOEnv
from repro.kv.lsm import LSMTree, merge_sorted_unique
from repro.kv.memtable import TOMBSTONE
from repro.mmio.explicit import ExplicitIOEngine
from repro.mmio.files import ExtentAllocator
from repro.devices.pmem import PmemDevice
from repro.sim.executor import SimThread


def _lsm(sst_bytes=16 * units.KIB):
    device = PmemDevice(capacity_bytes=256 * units.MIB)
    io = ExplicitIOEngine(Machine(), cache_pages=512)
    env = DirectIOEnv(io, ExtentAllocator(device))
    return LSMTree(env, sst_target_bytes=sst_bytes), SimThread(core=0, tid=0)


def _batch(start, count, tag=b"v"):
    return [(b"key-%06d" % i, tag + b"-%d" % i) for i in range(start, start + count)]


class TestMergeSortedUnique:
    def test_dedup_newest_wins(self):
        newest = iter([(b"a", b"new"), (b"c", b"c1")])
        oldest = iter([(b"a", b"old"), (b"b", b"b1")])
        merged = list(merge_sorted_unique([newest, oldest]))
        assert merged == [(b"a", b"new"), (b"b", b"b1"), (b"c", b"c1")]

    def test_empty_streams(self):
        assert list(merge_sorted_unique([iter([]), iter([])])) == []

    def test_many_streams_sorted(self):
        streams = [iter([(b"%d" % i, b"x")]) for i in range(9, -1, -1)]
        merged = list(merge_sorted_unique(streams))
        assert [k for k, _ in merged] == sorted(b"%d" % i for i in range(10))


class TestL0:
    def test_add_and_get(self):
        lsm, thread = _lsm()
        lsm.add_l0(thread, iter(_batch(0, 50)))
        assert lsm.get(thread, b"key-000010") == b"v-10"
        assert lsm.get(thread, b"key-999999") is None

    def test_newest_l0_wins(self):
        lsm, thread = _lsm()
        lsm.add_l0(thread, iter(_batch(0, 10, b"old")))
        lsm.add_l0(thread, iter(_batch(0, 10, b"new")))
        assert lsm.get(thread, b"key-000005") == b"new-5"

    def test_tombstone_hides_older_value(self):
        lsm, thread = _lsm()
        lsm.add_l0(thread, iter(_batch(0, 10)))
        lsm.add_l0(thread, iter([(b"key-000003", TOMBSTONE)]))
        assert lsm.get(thread, b"key-000003") is None
        assert lsm.get(thread, b"key-000004") == b"v-4"


class TestCompaction:
    def test_l0_trigger(self):
        lsm, thread = _lsm()
        for i in range(4):
            lsm.add_l0(thread, iter(_batch(i * 50, 50)))
        assert lsm.needs_compaction() == 0
        lsm.compact_all(thread)
        assert len(lsm.levels[0]) == 0
        assert lsm.total_files() > 0

    def test_data_survives_compaction(self):
        lsm, thread = _lsm()
        for i in range(6):
            lsm.add_l0(thread, iter(_batch(i * 100, 100)))
        lsm.compact_all(thread)
        for i in range(600):
            assert lsm.get(thread, b"key-%06d" % i) == b"v-%d" % i

    def test_compaction_dedupes(self):
        lsm, thread = _lsm()
        for _ in range(4):
            lsm.add_l0(thread, iter(_batch(0, 100, b"old")))
        lsm.add_l0(thread, iter(_batch(0, 100, b"new")))
        lsm.compact_all(thread)
        assert lsm.get(thread, b"key-000000") == b"new-0"

    def test_sorted_level_invariant(self):
        """L1+ files are sorted and non-overlapping after compaction."""
        lsm, thread = _lsm(sst_bytes=8 * units.KIB)
        for i in range(8):
            lsm.add_l0(thread, iter(_batch(i * 64, 64)))
            lsm.compact_all(thread)
        for level in lsm.levels[1:]:
            for earlier, later in zip(level, level[1:]):
                assert earlier.last_key < later.first_key

    def test_tombstones_dropped_at_bottom(self):
        lsm, thread = _lsm()
        lsm.add_l0(thread, iter(_batch(0, 50)))
        lsm.add_l0(thread, iter([(b"key-%06d" % i, TOMBSTONE) for i in range(25)]))
        lsm.add_l0(thread, iter(_batch(100, 10)))
        lsm.add_l0(thread, iter(_batch(200, 10)))
        lsm.compact_all(thread)
        for i in range(25):
            assert lsm.get(thread, b"key-%06d" % i) is None
        for i in range(25, 50):
            assert lsm.get(thread, b"key-%06d" % i) == b"v-%d" % i

    def test_old_files_deleted(self):
        lsm, thread = _lsm()
        for i in range(4):
            lsm.add_l0(thread, iter(_batch(0, 200)))
        files_before = lsm.total_files()
        lsm.compact_all(thread)
        # Deduped output shrinks the file count vs 4 overlapping inputs.
        assert lsm.total_files() < files_before


class TestScan:
    def test_merged_scan(self):
        lsm, thread = _lsm()
        lsm.add_l0(thread, iter(_batch(0, 50, b"old")))
        lsm.compact_all(thread)
        lsm.add_l0(thread, iter(_batch(25, 10, b"new")))
        result = lsm.scan(thread, b"key-000020", 10)
        assert len(result) == 10
        keys = [k for k, _ in result]
        assert keys == sorted(keys)
        by_key = dict(result)
        assert by_key[b"key-000025"] == b"new-25"   # newest wins
        assert by_key[b"key-000020"] == b"old-20"

    def test_scan_excludes_tombstones(self):
        lsm, thread = _lsm()
        lsm.add_l0(thread, iter(_batch(0, 10)))
        lsm.add_l0(thread, iter([(b"key-000002", TOMBSTONE)]))
        result = lsm.scan(thread, b"key-000000", 5)
        assert b"key-000002" not in [k for k, _ in result]
