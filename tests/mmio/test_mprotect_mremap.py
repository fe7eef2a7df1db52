"""mprotect and mremap: the rest of the mmap-compatible surface."""

import pytest

from repro.common import units
from repro.common.errors import ProtectionFault, SegmentationFault
from repro.mmio.vma import PROT_READ, PROT_WRITE
from repro.sim.executor import SimThread


def _setup(make_stack, file_pages=32, cache_pages=64):
    stack = make_stack(cache_pages=cache_pages)
    file = stack.allocator.create("data", file_pages * units.PAGE_SIZE)
    thread = SimThread(core=0, tid=0)
    return stack, file, thread, stack.engine.mmap(thread, file)


class TestMprotect:
    def test_drop_write_blocks_stores(self, make_stack):
        _, _, thread, mapping = _setup(make_stack)
        mapping.store(thread, 0, b"before")
        mapping.mprotect(thread, PROT_READ)
        with pytest.raises(ProtectionFault):
            mapping.store(thread, 0, b"after")
        assert mapping.load(thread, 0, 6) == b"before"

    def test_regrant_write(self, make_stack):
        _, _, thread, mapping = _setup(make_stack)
        mapping.mprotect(thread, PROT_READ)
        mapping.mprotect(thread, PROT_READ | PROT_WRITE)
        mapping.store(thread, 0, b"writable again")
        assert mapping.load(thread, 0, 14) == b"writable again"

    def test_downgrade_retracks_dirty(self, make_stack):
        """After a protect round-trip, new writes fault and re-mark dirty."""
        stack, file, thread, mapping = _setup(make_stack)
        mapping.store(thread, 0, b"one")
        mapping.msync(thread)
        mapping.mprotect(thread, PROT_READ)
        mapping.mprotect(thread, PROT_READ | PROT_WRITE)
        mapping.store(thread, 0, b"two")
        mapping.msync(thread)
        assert stack.device.store.read(file.device_offset(0), 3) == b"two"

    def test_shootdown_on_downgrade(self, make_stack):
        stack, _, thread, mapping = _setup(make_stack)
        mapping.store(thread, 0, b"x")
        shootdowns_before = stack.engine._shootdowns.pages_invalidated
        mapping.mprotect(thread, PROT_READ)
        assert stack.engine._shootdowns.pages_invalidated > shootdowns_before


class TestMremap:
    def test_grow(self, make_stack):
        _, _, thread, mapping = _setup(make_stack, file_pages=32)
        small = 8 * units.PAGE_SIZE
        mapping.mremap(thread, 8)
        assert mapping.size_bytes == small
        mapping.mremap(thread, 32)
        assert mapping.size_bytes == 32 * units.PAGE_SIZE
        mapping.store(thread, 31 * units.PAGE_SIZE, b"tail")
        assert mapping.load(thread, 31 * units.PAGE_SIZE, 4) == b"tail"

    def test_data_survives_move(self, make_stack):
        _, _, thread, mapping = _setup(make_stack)
        mapping.store(thread, 5 * units.PAGE_SIZE, b"moved with the mapping")
        mapping.mremap(thread, 16)
        assert mapping.load(thread, 5 * units.PAGE_SIZE, 22) == b"moved with the mapping"

    def test_shrink_drops_tail_mappings(self, make_stack):
        stack, _, thread, mapping = _setup(make_stack)
        mapping.store(thread, 20 * units.PAGE_SIZE, b"tail data")
        mapping.mremap(thread, 8)
        with pytest.raises(SegmentationFault):
            mapping.load(thread, 20 * units.PAGE_SIZE, 9)
        # Grow back: the data is still in the file/cache.
        mapping.mremap(thread, 32)
        assert mapping.load(thread, 20 * units.PAGE_SIZE, 9) == b"tail data"

    def test_dirty_state_migrates(self, make_stack):
        """Dirty pages moved by mremap still reach the device on msync."""
        stack, file, thread, mapping = _setup(make_stack)
        mapping.store(thread, 0, b"dirty-at-move")
        mapping.mremap(thread, 16)
        mapping.msync(thread)
        assert stack.device.store.read(file.device_offset(0), 13) == b"dirty-at-move"

    def test_moved_pages_stay_hits(self, make_stack):
        """Present pages migrate as PTEs: no refault after the move."""
        stack, _, thread, mapping = _setup(make_stack)
        mapping.load(thread, 0, 8)
        faults = stack.engine.faults
        mapping.mremap(thread, 16)
        mapping.load(thread, 0, 8)
        assert stack.engine.faults == faults

    def test_same_size_noop(self, make_stack):
        _, _, thread, mapping = _setup(make_stack)
        vma = mapping.vma
        mapping.mremap(thread, vma.num_pages)
        assert mapping.vma is vma

    def test_beyond_file_rejected(self, make_stack):
        _, _, thread, mapping = _setup(make_stack, file_pages=8)
        with pytest.raises(ValueError):
            mapping.mremap(thread, 16)
        with pytest.raises(ValueError):
            mapping.mremap(thread, 0)

    def test_old_range_invalid_after_move(self, make_stack):
        stack, _, thread, mapping = _setup(make_stack)
        old_vpn = mapping.vma.start_vpn
        mapping.load(thread, 0, 8)
        mapping.mremap(thread, 16)
        assert stack.engine.vmas.lookup(thread.clock, old_vpn) is None
