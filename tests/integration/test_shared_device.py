"""Protected sharing of one device between processes (paper Section 3.3).

"We provide protected sharing of NVM between different processes and
forward all metadata operations to the host OS."  Two independent Aquila
processes (separate engines, caches, page tables) over the same pmem
device must see each other's msync-ed writes.
"""

from repro.common import units
from repro.devices.pmem import PmemDevice
from repro.hw.machine import Machine
from repro.mmio.aquila import AquilaEngine
from repro.mmio.files import ExtentFile
from repro.devices.io_engines import DaxIO


def _process(machine, device, cache_pages=64):
    """A fresh 'process': its own engine, cache, and page table."""
    return AquilaEngine(machine, cache_pages=cache_pages, io_path=DaxIO(device))


class TestCrossProcessSharing:
    def test_msync_makes_writes_visible(self):
        machine = Machine()
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        shared_file_a = ExtentFile(1, "shared", device, 0, 16 * units.PAGE_SIZE)
        shared_file_b = ExtentFile(1, "shared", device, 0, 16 * units.PAGE_SIZE)

        writer_engine = _process(machine, device)
        reader_engine = _process(machine, device)
        writer = machine.thread(0)
        reader = machine.thread(1)

        w_map = writer_engine.mmap(writer, shared_file_a)
        w_map.store(writer, 100, b"cross-process message")
        w_map.msync(writer)

        # The reader starts after the writer's msync (simulated time).
        reader.clock.now = writer.clock.now
        r_map = reader_engine.mmap(reader, shared_file_b)
        assert r_map.load(reader, 100, 21) == b"cross-process message"

    def test_stale_cache_without_invalidation(self):
        """Sharing is at device granularity: a process that cached a page
        before the writer's update keeps its stale copy until it drops it
        (exactly the semantics of two kernels sharing a disk)."""
        machine = Machine()
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        file_a = ExtentFile(1, "s", device, 0, 4 * units.PAGE_SIZE)
        file_b = ExtentFile(1, "s", device, 0, 4 * units.PAGE_SIZE)
        a_engine = _process(machine, device)
        b_engine = _process(machine, device)
        a, b = machine.thread(0), machine.thread(1)

        b_map = b_engine.mmap(b, file_b)
        assert b_map.load(b, 0, 5) == bytes(5)     # caches the zero page

        a_map = a_engine.mmap(a, file_a)
        a_map.store(a, 0, b"fresh")
        a_map.msync(a)

        # B still sees its cached copy...
        assert b_map.load(b, 0, 5) == bytes(5)
        # ...until it invalidates and refaults.
        b_engine.invalidate_file(b, file_b)
        assert b_map.load(b, 0, 5) == b"fresh"

    def test_processes_have_independent_caches(self):
        machine = Machine()
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        a_engine = _process(machine, device)
        b_engine = _process(machine, device)
        a = machine.thread(0)
        file = ExtentFile(1, "f", device, 0, 8 * units.PAGE_SIZE)
        mapping = a_engine.mmap(a, file)
        mapping.load(a, 0, 8)
        assert a_engine.cache.resident_pages() == 1
        assert b_engine.cache.resident_pages() == 0
