"""Storage environment adapters."""

import pytest

from repro.bench.setups import make_aquila_stack, make_linux_stack
from repro.common import units
from repro.hw.machine import Machine
from repro.kv.env import DirectIOEnv, MmioEnv
from repro.mmio.explicit import ExplicitIOEngine
from repro.mmio.files import ExtentAllocator
from repro.devices.pmem import PmemDevice
from repro.sim.executor import SimThread


def _direct_env():
    device = PmemDevice(capacity_bytes=128 * units.MIB)
    io = ExplicitIOEngine(Machine(), cache_pages=128)
    return DirectIOEnv(io, ExtentAllocator(device))


def _mmio_env(kind="aquila"):
    maker = make_aquila_stack if kind == "aquila" else make_linux_stack
    stack = maker("pmem", cache_pages=128, capacity_bytes=128 * units.MIB)
    return MmioEnv(stack.engine, stack.allocator), stack


@pytest.fixture(params=["direct", "aquila", "linux"])
def env(request):
    if request.param == "direct":
        return _direct_env()
    return _mmio_env(request.param)[0]


class TestEnvContract:
    def test_write_then_read(self, env):
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "f", b"environment bytes" * 100)
        assert env.read(thread, file, 0, 17) == b"environment bytes"
        assert env.read(thread, file, 17 * 99, 17) == b"environment bytes"

    def test_append(self, env):
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "log", bytes(units.PAGE_SIZE * 4))
        env.append(thread, file, 100, b"appended-record")
        assert env.read(thread, file, 100, 15) == b"appended-record"

    def test_delete_releases(self, env):
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "victim", bytes(units.PAGE_SIZE * 8))
        env.read(thread, file, 0, 64)
        env.delete_file(thread, file)
        # Space is reusable (no capacity exhaustion after heavy churn).
        for _ in range(50):
            f = env.write_file(thread, "churn", bytes(units.PAGE_SIZE * 8))
            env.delete_file(thread, f)


class TestMmioEnvSpecifics:
    def test_mapping_reused(self):
        env, stack = _mmio_env()
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "f", bytes(units.PAGE_SIZE * 4))
        env.read(thread, file, 0, 8)
        mapping_a = env.mapping_of(thread, file)
        env.read(thread, file, 4096, 8)
        assert env.mapping_of(thread, file) is mapping_a

    def test_delete_drops_cached_pages(self):
        env, stack = _mmio_env()
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "f", bytes(units.PAGE_SIZE * 4))
        env.read(thread, file, 0, 8)
        assert stack.engine.cache.resident_pages() > 0
        env.delete_file(thread, file)
        assert stack.engine.cache.pages_of_file(file.file_id) == []

    def test_msync_all(self):
        env, stack = _mmio_env()
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "f", bytes(units.PAGE_SIZE * 4))
        mapping = env.mapping_of(thread, file)
        mapping.store(thread, 0, b"dirty")
        assert env.msync_all(thread) >= 1

    def test_reads_through_mapping_fault(self):
        env, stack = _mmio_env()
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "f", bytes(units.PAGE_SIZE * 8))
        before = stack.engine.faults
        env.read(thread, file, 0, 8)
        assert stack.engine.faults > before


class TestDirectEnvSpecifics:
    def test_reads_through_user_cache(self):
        env = _direct_env()
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "f", b"cached" * 1000)
        env.read(thread, file, 0, 6)
        assert env.io.cache.misses >= 1
        env.read(thread, file, 0, 6)
        assert env.io.cache.hits >= 1

    def test_delete_invalidates_user_cache(self):
        env = _direct_env()
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "f", b"x" * 8192)
        env.read(thread, file, 0, 8)
        env.delete_file(thread, file)
        assert env.io.cache.resident_blocks() == 0
