"""Backing files: extents and allocator reuse."""

import pytest

from repro.common import units
from repro.common.errors import OutOfSpaceError
from repro.devices.pmem import PmemDevice
from repro.mmio.files import ExtentAllocator, ExtentFile


class TestExtentFile:
    def test_offsets_contiguous(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        file = ExtentFile(1, "f", device, units.MIB, 8 * units.PAGE_SIZE)
        assert file.device_offset(0) == units.MIB
        assert file.device_offset(3) == units.MIB + 3 * units.PAGE_SIZE

    def test_bounds(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        file = ExtentFile(1, "f", device, 0, 4 * units.PAGE_SIZE)
        with pytest.raises(OutOfSpaceError):
            file.device_offset(4)

    def test_unaligned_base_rejected(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        with pytest.raises(ValueError):
            ExtentFile(1, "f", device, 100, units.PAGE_SIZE)

    def test_beyond_capacity_rejected(self):
        device = PmemDevice(capacity_bytes=units.MIB)
        with pytest.raises(OutOfSpaceError):
            ExtentFile(1, "f", device, 0, 2 * units.MIB)

    def test_contiguous_run_full(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        file = ExtentFile(1, "f", device, 0, 8 * units.PAGE_SIZE)
        assert file.contiguous_run(0, 100) == 8
        assert file.contiguous_run(6, 100) == 2

    def test_size_pages_rounds_up(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        file = ExtentFile(1, "f", device, 0, units.PAGE_SIZE + 1)
        assert file.size_pages == 2

    def test_unique_file_ids(self):
        allocator = ExtentAllocator(PmemDevice(capacity_bytes=64 * units.MIB))
        a = allocator.create("a", units.PAGE_SIZE)
        b = allocator.create("b", units.PAGE_SIZE)
        assert a.file_id != b.file_id


class TestExtentAllocator:
    def test_file_ids_count_from_one_per_allocator(self):
        """Each stack numbers its own files, whatever else was built."""
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        first, second = ExtentAllocator(device), ExtentAllocator(device)
        ids = [first.create(f"a{i}", units.PAGE_SIZE).file_id for i in range(3)]
        assert ids == [1, 2, 3]
        assert second.create("b", units.PAGE_SIZE).file_id == 1
        first.free(first.create("c", units.PAGE_SIZE))
        assert first.create("d", units.PAGE_SIZE).file_id == 5   # reuse keeps counting

    def test_non_overlapping(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        allocator = ExtentAllocator(device)
        a = allocator.create("a", 10_000)
        b = allocator.create("b", 10_000)
        a_end = a.base_offset + units.page_align_up(a.size_bytes)
        assert b.base_offset >= a_end

    def test_free_reuse_first_fit(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        allocator = ExtentAllocator(device)
        a = allocator.create("a", units.MIB)
        b = allocator.create("b", units.MIB)
        allocator.free(a)
        c = allocator.create("c", units.MIB)
        assert c.base_offset == a.base_offset

    def test_free_discards_exactly_its_extent(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        allocator = ExtentAllocator(device)
        files = [allocator.create(name, 3 * units.PAGE_SIZE + 10) for name in "abc"]
        for file in files:
            device.store.write(file.base_offset, file.name.encode() * file.size_bytes)
        allocator.free(files[1])
        freed = range(
            files[1].base_offset // units.PAGE_SIZE,
            (files[1].base_offset + units.page_align_up(files[1].size_bytes)) // units.PAGE_SIZE,
        )
        assert not set(device.store.snapshot()) & set(freed)
        assert device.store.read(files[1].base_offset, files[1].size_bytes) == bytes(
            files[1].size_bytes
        )
        for file in (files[0], files[2]):
            assert device.store.read(file.base_offset, file.size_bytes) == (
                file.name.encode() * file.size_bytes
            )

    def test_reused_extent_reads_new_bytes_then_zeros(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        allocator = ExtentAllocator(device)
        old = allocator.create("old", 4 * units.PAGE_SIZE)
        device.store.write(old.base_offset, b"o" * old.size_bytes)
        allocator.free(old)
        new = allocator.create("new", units.PAGE_SIZE + 100)
        assert new.base_offset == old.base_offset
        device.store.write(new.base_offset, b"n" * new.size_bytes)
        assert device.store.read(new.base_offset, new.size_bytes) == b"n" * new.size_bytes
        tail = old.size_bytes - new.size_bytes
        assert device.store.read(new.base_offset + new.size_bytes, tail) == bytes(tail)

    def test_free_split_on_smaller_reuse(self):
        device = PmemDevice(capacity_bytes=64 * units.MIB)
        allocator = ExtentAllocator(device)
        a = allocator.create("a", 4 * units.PAGE_SIZE)
        allocator.free(a)
        small = allocator.create("s", units.PAGE_SIZE)
        small2 = allocator.create("s2", units.PAGE_SIZE)
        assert small.base_offset == a.base_offset
        assert small2.base_offset == a.base_offset + units.PAGE_SIZE

    def test_churn_does_not_exhaust(self):
        """LSM-style create/delete churn stays within the device."""
        device = PmemDevice(capacity_bytes=4 * units.MIB)
        allocator = ExtentAllocator(device)
        for _ in range(100):
            file = allocator.create("tmp", units.MIB)
            allocator.free(file)
        assert allocator.bytes_allocated <= 4 * units.MIB
