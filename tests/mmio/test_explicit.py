"""The explicit-I/O (direct pread + user cache) baseline engine."""

import pytest

from repro.common import constants, units
from repro.hw.machine import Machine
from repro.mmio.explicit import ExplicitIOEngine
from repro.mmio.files import ExtentAllocator
from repro.devices.pmem import PmemDevice
from repro.sim.executor import SimThread


def _setup(cache_pages=64):
    machine = Machine()
    device = PmemDevice(capacity_bytes=64 * units.MIB)
    io = ExplicitIOEngine(machine, cache_pages=cache_pages)
    allocator = ExtentAllocator(device)
    file = allocator.create("data", 64 * units.PAGE_SIZE)
    return io, file, SimThread(core=0, tid=0)


class TestPread:
    def test_roundtrip_via_pwrite(self):
        io, file, thread = _setup()
        io.pwrite(thread, file, 1000, b"explicit path")
        assert io.pread(thread, file, 1000, 13) == b"explicit path"

    def test_miss_costs_syscall_plus_device(self):
        io, file, thread = _setup()
        before = thread.clock.now
        io.pread(thread, file, 0, 100)
        elapsed = thread.clock.now - before
        assert elapsed >= constants.USERCACHE_SYSCALL_MISS_CYCLES

    def test_hit_costs_only_lookup(self):
        io, file, thread = _setup()
        io.pread(thread, file, 0, 100)   # warm
        before = thread.clock.now
        io.pread(thread, file, 0, 100)
        elapsed = thread.clock.now - before
        assert elapsed < constants.USERCACHE_SYSCALL_MISS_CYCLES
        assert elapsed >= constants.USERCACHE_LOOKUP_CYCLES

    def test_block_spanning_read(self):
        io, file, thread = _setup()
        data = bytes(range(256)) * 32   # 8 KB
        io.pwrite(thread, file, 4000, data)
        assert io.pread(thread, file, 4000, len(data)) == data

    def test_bounds_checked(self):
        io, file, thread = _setup()
        with pytest.raises(ValueError):
            io.pread(thread, file, file.size_bytes - 1, 2)
        with pytest.raises(ValueError):
            io.pwrite(thread, file, file.size_bytes, b"x")


class TestPwrite:
    def test_write_invalidates_stale_cache(self):
        io, file, thread = _setup()
        io.pread(thread, file, 0, 10)          # cache block 0
        io.pwrite(thread, file, 0, b"new-bytes!")
        assert io.pread(thread, file, 0, 10) == b"new-bytes!"

    def test_write_goes_to_device(self):
        io, file, thread = _setup()
        io.pwrite(thread, file, 0, b"direct")
        assert file.device.store.read(file.device_offset(0), 6) == b"direct"

    def test_large_write_single_run(self):
        io, file, thread = _setup()
        writes_before = file.device.writes
        io.pwrite(thread, file, 0, bytes(16 * units.PAGE_SIZE))
        # A contiguous extent takes one large submission.
        assert file.device.writes == writes_before + 1


class TestAccounting:
    def test_counters(self):
        io, file, thread = _setup()
        io.pread(thread, file, 0, 10)
        io.pwrite(thread, file, 0, b"x")
        io.fsync(thread, file)
        assert io.reads == 1
        assert io.writes == 1
        assert io.vmx.syscalls >= 3
