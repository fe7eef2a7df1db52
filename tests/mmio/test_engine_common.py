"""Behaviour every mmio engine must share: the mmap-compatible contract.

Running the same assertions over Linux mmap, Aquila, and kmmap is the
executable form of the paper's compatibility claim — applications cannot
tell the engines apart except by performance.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import units
from repro.common.errors import ProtectionFault, SegmentationFault
from repro.mmio.vma import MADV_RANDOM, PROT_READ
from repro.sim.executor import SimThread


def _setup(make_stack, file_pages=128, cache_pages=64):
    stack = make_stack(cache_pages=cache_pages)
    file = stack.allocator.create("data", file_pages * units.PAGE_SIZE)
    thread = SimThread(core=0)
    mapping = stack.engine.mmap(thread, file)
    mapping.madvise(thread, MADV_RANDOM)
    return stack, file, thread, mapping


class TestBasicIO:
    def test_zero_fill_initial(self, make_stack):
        _, _, thread, mapping = _setup(make_stack)
        assert mapping.load(thread, 0, 16) == bytes(16)

    def test_store_load_roundtrip(self, make_stack):
        _, _, thread, mapping = _setup(make_stack)
        mapping.store(thread, 100, b"hello, engine")
        assert mapping.load(thread, 100, 13) == b"hello, engine"

    def test_page_spanning_access(self, make_stack):
        _, _, thread, mapping = _setup(make_stack)
        data = bytes(range(256)) * 40   # 10240 bytes, 3 pages
        mapping.store(thread, 4090, data)
        assert mapping.load(thread, 4090, len(data)) == data

    def test_out_of_bounds_rejected(self, make_stack):
        _, _, thread, mapping = _setup(make_stack, file_pages=4)
        with pytest.raises(SegmentationFault):
            mapping.load(thread, 4 * units.PAGE_SIZE, 1)
        with pytest.raises(SegmentationFault):
            mapping.store(thread, 4 * units.PAGE_SIZE - 1, b"ab")

    def test_read_only_mapping_rejects_writes(self, make_stack):
        stack = make_stack()
        file = stack.allocator.create("ro", 4 * units.PAGE_SIZE)
        thread = SimThread(core=0)
        mapping = stack.engine.mmap(thread, file, prot=PROT_READ)
        mapping.load(thread, 0, 8)
        with pytest.raises(ProtectionFault):
            mapping.store(thread, 0, b"nope")


def _reference_split(mapping, offset, nbytes):
    """The page split ``load``/``store`` used to run through, kept as an oracle."""
    if offset < 0 or nbytes < 0 or offset + nbytes > mapping.size_bytes:
        raise SegmentationFault(offset, f"access [{offset}, +{nbytes}) outside mapping")
    pos = offset
    remaining = nbytes
    while remaining > 0:
        in_page = pos & (units.PAGE_SIZE - 1)
        take = min(remaining, units.PAGE_SIZE - in_page)
        yield (pos - in_page, in_page, take)
        pos += take
        remaining -= take


def _reference_load(engine, thread, mapping, offset, nbytes):
    chunks = []
    for page_offset, in_page, take in _reference_split(mapping, offset, nbytes):
        frame = engine._ensure_mapped(thread, mapping, page_offset, is_write=False)
        chunks.append(engine._pool().read_partial(frame, in_page, take))
    return b"".join(chunks)


def _reference_store(engine, thread, mapping, offset, data):
    written = 0
    for page_offset, in_page, take in _reference_split(mapping, offset, len(data)):
        frame = engine._ensure_mapped(thread, mapping, page_offset, is_write=True)
        engine._pool().write_partial(frame, in_page, data[written : written + take])
        written += take


_END = 8 * units.PAGE_SIZE
#: (offset, nbytes) at every page and mapping boundary of an 8-page file.
BOUNDARY_CASES = {
    "empty-at-start": (0, 0),
    "empty-at-end": (_END, 0),
    "last-byte-of-page": (units.PAGE_SIZE - 1, 1),
    "one-full-page": (units.PAGE_SIZE, units.PAGE_SIZE),
    "straddles-two-pages": (units.PAGE_SIZE - 10, 20),
    "spans-three-pages": (units.PAGE_SIZE - 10, units.PAGE_SIZE + 20),
    "ends-at-mapping-end": (_END - 100, 100),
    "one-byte-past-end": (_END - 100, 101),
    "negative-offset": (-1, 4),
}
_OUT_OF_RANGE = {"one-byte-past-end", "negative-offset"}


def _cold_setup(make_stack):
    """An 8-page mapping whose pages hold data on the device, none cached."""
    stack, file, thread, mapping = _setup(make_stack, file_pages=8)
    mapping.store(thread, 0, bytes(range(256)) * (_END // 256))
    mapping.msync(thread)
    stack.engine.invalidate_file(thread, file)
    mapping.load(thread, units.PAGE_SIZE, 8)   # page 1 cached and mapped
    return stack, thread, mapping


def _observed(stack, thread):
    engine = stack.engine
    return (
        thread.clock.now,
        list(thread.clock.breakdown.as_dict().items()),
        engine.faults,
        engine.major_faults,
        engine.minor_faults,
        engine.wp_faults,
    )


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
class TestAccessBoundaries:
    """``load``/``store`` equal the per-page split loop at every boundary."""

    def test_load_matches_reference(self, make_stack, case):
        offset, nbytes = BOUNDARY_CASES[case]
        stack, thread, mapping = _cold_setup(make_stack)
        ref_stack, ref_thread, ref_mapping = _cold_setup(make_stack)
        before = _observed(stack, thread)
        assert before == _observed(ref_stack, ref_thread)
        if case in _OUT_OF_RANGE:
            with pytest.raises(SegmentationFault):
                mapping.load(thread, offset, nbytes)
            with pytest.raises(SegmentationFault):
                _reference_load(ref_stack.engine, ref_thread, ref_mapping, offset, nbytes)
            assert _observed(stack, thread) == before
        else:
            value = mapping.load(thread, offset, nbytes)
            expected = _reference_load(
                ref_stack.engine, ref_thread, ref_mapping, offset, nbytes
            )
            assert value == expected and len(value) == nbytes
        assert _observed(stack, thread) == _observed(ref_stack, ref_thread)

    def test_store_matches_reference(self, make_stack, case):
        offset, nbytes = BOUNDARY_CASES[case]
        data = bytes(255 - i % 256 for i in range(max(nbytes, 0)))
        stack, thread, mapping = _cold_setup(make_stack)
        ref_stack, ref_thread, ref_mapping = _cold_setup(make_stack)
        before = _observed(stack, thread)
        if case in _OUT_OF_RANGE:
            with pytest.raises(SegmentationFault):
                mapping.store(thread, offset, data)
            with pytest.raises(SegmentationFault):
                _reference_store(ref_stack.engine, ref_thread, ref_mapping, offset, data)
            assert _observed(stack, thread) == before
        else:
            mapping.store(thread, offset, data)
            _reference_store(ref_stack.engine, ref_thread, ref_mapping, offset, data)
        assert _observed(stack, thread) == _observed(ref_stack, ref_thread)
        assert mapping.load(thread, 0, _END) == ref_mapping.load(ref_thread, 0, _END)


class TestFaultAccounting:
    def test_first_access_faults_second_hits(self, make_stack):
        stack, _, thread, mapping = _setup(make_stack)
        mapping.load(thread, 0, 8)
        faults = stack.engine.faults
        mapping.load(thread, 8, 8)   # same page: hardware hit
        assert stack.engine.faults == faults

    def test_write_after_read_takes_protection_fault(self, make_stack):
        """The dirty-tracking protocol of Section 3.2."""
        stack, _, thread, mapping = _setup(make_stack)
        mapping.load(thread, 0, 8)
        wp_before = stack.engine.wp_faults
        mapping.store(thread, 0, b"x")
        assert stack.engine.wp_faults == wp_before + 1
        # Second write: no further fault.
        mapping.store(thread, 1, b"y")
        assert stack.engine.wp_faults == wp_before + 1

    def test_write_fault_marks_dirty_immediately(self, make_stack):
        """A write fault marks dirty during the initial fault."""
        stack, _, thread, mapping = _setup(make_stack)
        wp_before = stack.engine.wp_faults
        mapping.store(thread, 0, b"direct write")
        assert stack.engine.wp_faults == wp_before
        mapping.store(thread, 4, b"again")   # still no wp fault
        assert stack.engine.wp_faults == wp_before


class TestMsync:
    def test_msync_persists_to_device(self, make_stack):
        stack, file, thread, mapping = _setup(make_stack)
        mapping.store(thread, 5000, b"durable")
        written = mapping.msync(thread)
        assert written >= 1
        device_data = stack.device.store.read(file.device_offset(1) + 5000 % 4096, 7)
        assert device_data == b"durable"

    def test_msync_idempotent(self, make_stack):
        _, _, thread, mapping = _setup(make_stack)
        mapping.store(thread, 0, b"x")
        assert mapping.msync(thread) >= 1
        assert mapping.msync(thread) == 0   # nothing dirty anymore

    def test_write_after_msync_tracked_again(self, make_stack):
        stack, file, thread, mapping = _setup(make_stack)
        mapping.store(thread, 0, b"first")
        mapping.msync(thread)
        mapping.store(thread, 0, b"SECOND")
        mapping.msync(thread)
        assert stack.device.store.read(file.device_offset(0), 6) == b"SECOND"


class TestMunmap:
    def test_munmap_flushes_and_invalidates(self, make_stack):
        stack, file, thread, mapping = _setup(make_stack)
        mapping.store(thread, 0, b"bye")
        mapping.munmap(thread)
        assert not mapping.active
        assert stack.device.store.read(file.device_offset(0), 3) == b"bye"
        with pytest.raises(SegmentationFault):
            mapping.load(thread, 0, 1)

    def test_munmap_twice_is_noop(self, make_stack):
        _, _, thread, mapping = _setup(make_stack)
        mapping.munmap(thread)
        mapping.munmap(thread)

    def test_remap_sees_persisted_data(self, make_stack):
        stack, file, thread, mapping = _setup(make_stack)
        mapping.store(thread, 123, b"persist across maps")
        mapping.munmap(thread)
        mapping2 = stack.engine.mmap(thread, file)
        assert mapping2.load(thread, 123, 19) == b"persist across maps"


class TestEviction:
    def test_capacity_never_exceeded(self, make_stack):
        stack, _, thread, mapping = _setup(make_stack, file_pages=256, cache_pages=32)
        for page in range(256):
            mapping.load(thread, page * units.PAGE_SIZE, 8)
        assert stack.engine.cache.resident_pages() <= 32

    def test_dirty_data_survives_eviction(self, make_stack):
        stack, _, thread, mapping = _setup(make_stack, file_pages=256, cache_pages=32)
        mapping.store(thread, 0, b"must survive")
        # Thrash the cache to force page 0 out.
        for page in range(1, 256):
            mapping.load(thread, page * units.PAGE_SIZE, 8)
        assert mapping.load(thread, 0, 12) == b"must survive"

    def test_invalidate_file_drops_cached_pages(self, make_stack):
        stack, file, thread, mapping = _setup(make_stack)
        mapping.load(thread, 0, 8)
        mapping.load(thread, units.PAGE_SIZE, 8)
        dropped = stack.engine.invalidate_file(thread, file)
        assert dropped >= 2
        assert stack.engine.cache.resident_pages() == 0


class TestRandomizedIntegrity:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 2 ** 16))
    def test_mixed_workload_matches_model(self, make_stack, seed):
        """Random 8-byte-aligned stores/loads behave like a plain dict."""
        stack, file, thread, mapping = _setup(
            make_stack, file_pages=64, cache_pages=16
        )
        rng = random.Random(seed)
        model = {}
        for i in range(300):
            offset = rng.randrange(64 * units.PAGE_SIZE // 8) * 8
            if rng.random() < 0.5:
                value = rng.getrandbits(64).to_bytes(8, "little")
                mapping.store(thread, offset, value)
                model[offset] = value
            else:
                expected = model.get(offset, bytes(8))
                assert mapping.load(thread, offset, 8) == expected
        # Final full validation through a fresh mapping after msync.
        mapping.msync(thread)
        mapping.munmap(thread)
        mapping2 = stack.engine.mmap(thread, file)
        for offset, value in model.items():
            assert mapping2.load(thread, offset, 8) == value
