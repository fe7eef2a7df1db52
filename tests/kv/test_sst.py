"""SST format: building, reading, scanning, iteration."""

import pytest

from repro.bench.setups import make_aquila_stack
from repro.common import units
from repro.hw.machine import Machine
from repro.kv.env import DirectIOEnv, MmioEnv
from repro.kv.sst import SSTBuilder, SSTable, build_sst
from repro.mmio.explicit import ExplicitIOEngine
from repro.mmio.files import ExtentAllocator
from repro.devices.pmem import PmemDevice
from repro.sim.executor import SimThread


@pytest.fixture(params=["direct", "aquila"])
def env(request):
    if request.param == "direct":
        device = PmemDevice(capacity_bytes=128 * units.MIB)
        io = ExplicitIOEngine(Machine(), cache_pages=256)
        return DirectIOEnv(io, ExtentAllocator(device))
    stack = make_aquila_stack("pmem", cache_pages=256, capacity_bytes=128 * units.MIB)
    return MmioEnv(stack.engine, stack.allocator)


def _entries(n, prefix=b"key"):
    return [(b"%s-%06d" % (prefix, i), b"value-%d" % i) for i in range(n)]


class TestBuilder:
    def test_rejects_unsorted(self):
        builder = SSTBuilder()
        builder.add(b"b", b"1")
        with pytest.raises(ValueError):
            builder.add(b"a", b"2")
        with pytest.raises(ValueError):
            builder.add(b"b", b"dup")

    def test_tracks_key_range(self):
        builder = SSTBuilder()
        for key, value in _entries(10):
            builder.add(key, value)
        assert builder.first_key == b"key-000000"
        assert builder.last_key == b"key-000009"

    def test_blocks_page_aligned(self):
        builder = SSTBuilder()
        for key, value in _entries(500):
            builder.add(key, value)
        data = builder.finish()
        # Data region is whole blocks.
        assert builder.size_bytes % units.PAGE_SIZE == 0


class TestSSTable:
    def test_get_every_key(self, env):
        thread = SimThread(core=0, tid=0)
        table = build_sst(env, thread, "t.sst", iter(_entries(300)))
        for key, value in _entries(300):
            assert table.get(thread, key) == value

    def test_get_missing(self, env):
        thread = SimThread(core=0, tid=0)
        table = build_sst(env, thread, "t.sst", iter(_entries(50)))
        assert table.get(thread, b"key-999999") is None
        assert table.get(thread, b"aaa") is None

    def test_bloom_short_circuits(self, env):
        thread = SimThread(core=0, tid=0)
        table = build_sst(env, thread, "t.sst", iter(_entries(100)))
        reads_before = table.block_reads
        for i in range(50):
            table.get(thread, b"nonexistent-%d" % i)
        # Nearly all misses are rejected by the bloom filter without I/O.
        assert table.block_reads - reads_before <= 3
        assert table.bloom_negatives >= 47

    def test_scan_from(self, env):
        thread = SimThread(core=0, tid=0)
        table = build_sst(env, thread, "t.sst", iter(_entries(100)))
        result = table.scan_from(thread, b"key-000050", 10)
        assert [k for k, _ in result] == [b"key-%06d" % i for i in range(50, 60)]

    def test_iterate_all_in_order(self, env):
        thread = SimThread(core=0, tid=0)
        entries = _entries(200)
        table = build_sst(env, thread, "t.sst", iter(entries))
        assert list(table.iterate_all(thread)) == entries

    def test_overlaps(self, env):
        thread = SimThread(core=0, tid=0)
        table = build_sst(env, thread, "t.sst", iter(_entries(10)))
        assert table.overlaps(b"key-000005", b"key-000099")
        assert table.overlaps(b"a", b"z")
        assert not table.overlaps(b"z", b"zz")
        assert not table.overlaps(b"a", b"b")

    def test_empty_build_returns_none(self, env):
        thread = SimThread(core=0, tid=0)
        assert build_sst(env, thread, "e.sst", iter([])) is None

    def test_large_values_span_blocks(self, env):
        thread = SimThread(core=0, tid=0)
        entries = [(b"k%02d" % i, bytes([i]) * 1500) for i in range(20)]
        table = build_sst(env, thread, "big.sst", iter(entries))
        for key, value in entries:
            assert table.get(thread, key) == value

    def test_reopen_from_same_file(self, env):
        """Index/filter are rebuilt from on-device bytes."""
        thread = SimThread(core=0, tid=0)
        entries = _entries(100)
        table = build_sst(env, thread, "t.sst", iter(entries))
        reopened = SSTable(env, table.file, thread, table.first_key, table.last_key)
        assert reopened.get(thread, b"key-000042") == b"value-42"
