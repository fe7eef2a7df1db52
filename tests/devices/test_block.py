"""Backing store, token-bucket timelines, and the generic block device."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import units
from repro.common.errors import OutOfSpaceError
from repro.common.units import ZERO_PAGE
from repro.devices.block import (
    BackingStore,
    BandwidthTimeline,
    BlockDevice,
    DeviceTimeline,
)
from repro.mem.frames import FramePool
from repro.sim.clock import CycleClock


class TestBackingStore:
    def test_zero_fill_default(self):
        store = BackingStore(units.MIB)
        assert store.read_page(0) == bytes(4096)

    def test_page_roundtrip(self):
        store = BackingStore(units.MIB)
        data = bytes(range(256)) * 16
        store.write_page(3, data)
        assert store.read_page(3) == data

    def test_wrong_size_page_write(self):
        store = BackingStore(units.MIB)
        with pytest.raises(ValueError):
            store.write_page(0, b"short")

    def test_capacity_enforced(self):
        store = BackingStore(units.MIB)
        with pytest.raises(OutOfSpaceError):
            store.read_page(256)
        with pytest.raises(OutOfSpaceError):
            store.write(units.MIB - 1, b"ab")

    def test_aligned_page_read_is_the_stored_page(self):
        store = BackingStore(units.MIB)
        data = bytes(range(256)) * 16
        store.write_page(3, data)
        assert store.read(3 * units.PAGE_SIZE, units.PAGE_SIZE) is store.read_page(3)
        assert store.read(4 * units.PAGE_SIZE, units.PAGE_SIZE) == bytes(units.PAGE_SIZE)
        assert store.read(3 * units.PAGE_SIZE + 1, units.PAGE_SIZE) == data[1:] + b"\x00"
        with pytest.raises(OutOfSpaceError):
            store.read(units.MIB, units.PAGE_SIZE)

    def test_spanning_write_read(self):
        store = BackingStore(units.MIB)
        data = b"X" * 10000   # spans 3 pages
        store.write(1000, data)
        assert store.read(1000, 10000) == data
        # Neighbouring bytes untouched.
        assert store.read(999, 1) == b"\x00"

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=units.MIB - 512),
        st.binary(min_size=1, max_size=512),
    )
    def test_write_read_roundtrip(self, offset, data):
        store = BackingStore(units.MIB)
        store.write(offset, data)
        assert store.read(offset, len(data)) == data

    def test_used_pages(self):
        store = BackingStore(units.MIB)
        assert store.used_pages() == 0
        store.write(0, b"a")
        store.write(units.PAGE_SIZE * 5, b"b")
        assert store.used_pages() == 2

    def test_used_pages_counts_stored_pages(self):
        store = BackingStore(units.MIB)
        store.write(0, b"x" * (4 * units.PAGE_SIZE))
        store.write(8 * units.PAGE_SIZE, bytes(units.PAGE_SIZE))
        assert store.used_pages() == 5
        store.discard(units.PAGE_SIZE, 2 * units.PAGE_SIZE)
        assert store.used_pages() == 3
        assert sorted(store.snapshot()) == [0, 3, 8]


class TestSharedZeroPage:
    def test_all_zero_writes_store_the_shared_page(self):
        store = BackingStore(units.MIB)
        store.write(0, bytes(3 * units.PAGE_SIZE))              # whole pages
        store.write_page(5, bytearray(units.PAGE_SIZE))
        store.write(7 * units.PAGE_SIZE + 100, b"\x00" * 10)    # partial page
        pages = store.snapshot()
        assert sorted(pages) == [0, 1, 2, 5, 7]
        assert all(page is ZERO_PAGE for page in pages.values())

    def test_zeroing_a_data_page_shares_it(self):
        store = BackingStore(units.MIB)
        store.write(0, b"data")
        assert store.snapshot()[0] is not ZERO_PAGE
        store.write(0, bytes(4))
        assert store.snapshot()[0] is ZERO_PAGE

    def test_data_pages_are_not_shared(self):
        store = BackingStore(units.MIB)
        store.write(0, bytes(units.PAGE_SIZE - 1) + b"\x01")
        assert store.snapshot()[0] is not ZERO_PAGE
        assert store.read_page(0)[-1] == 1

    def test_frame_filled_from_a_zero_page_holds_the_device_object(self):
        store = BackingStore(units.MIB)
        store.write(0, bytes(units.PAGE_SIZE))
        pool = FramePool(4)
        pool.write(1, store.read_page(0))
        assert pool.read(1) is store.read_page(0) is ZERO_PAGE
        assert pool.read(2) is ZERO_PAGE   # an unwritten frame


class TestPageWrites:
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_whole_and_partial_pages_read_back(self, kind):
        store = BackingStore(units.MIB)
        old = bytes(range(256)) * 80             # 5 pages under the write
        store.write(0, old)
        data = bytes((7 * i) % 251 for i in range(3 * units.PAGE_SIZE))
        offset = units.PAGE_SIZE - 300           # partial, 2 whole, partial
        store.write(offset, kind(data))
        end = offset + len(data)
        assert store.read(0, len(old)) == old[:offset] + data + old[end:]
        assert store.read(len(old), 300) == bytes(300)
        for index, page in store.snapshot().items():
            assert type(page) is bytes and len(page) == units.PAGE_SIZE
            assert page == store.read(index * units.PAGE_SIZE, units.PAGE_SIZE)

    def test_whole_page_write_replaces_old_bytes(self):
        store = BackingStore(units.MIB)
        store.write(units.PAGE_SIZE, b"\xff" * units.PAGE_SIZE)
        fresh = b"\x01" * 10 + bytes(units.PAGE_SIZE - 10)
        store.write(units.PAGE_SIZE, fresh)
        assert store.read_page(1) == fresh


class TestDiscard:
    def test_discarded_pages_read_zeros(self):
        store = BackingStore(units.MIB)
        data = b"z" * (6 * units.PAGE_SIZE)
        store.write(0, data)
        store.discard(2 * units.PAGE_SIZE, 3 * units.PAGE_SIZE)
        assert store.read(0, 2 * units.PAGE_SIZE) == data[: 2 * units.PAGE_SIZE]
        assert store.read(2 * units.PAGE_SIZE, 3 * units.PAGE_SIZE) == bytes(3 * units.PAGE_SIZE)
        assert store.read_page(5) == data[: units.PAGE_SIZE]
        assert sorted(store.snapshot()) == [0, 1, 5]

    def test_discard_of_unstored_pages_is_a_no_op(self):
        store = BackingStore(units.MIB)
        store.discard(0, units.MIB)
        assert store.used_pages() == 0

    def test_discard_checks_its_range(self):
        store = BackingStore(units.MIB)
        with pytest.raises(ValueError):
            store.discard(1, units.PAGE_SIZE)
        with pytest.raises(ValueError):
            store.discard(0, 100)
        with pytest.raises(OutOfSpaceError):
            store.discard(units.MIB - units.PAGE_SIZE, 2 * units.PAGE_SIZE)


class TestDeviceTimeline:
    def test_unlimited_never_queues(self):
        timeline = DeviceTimeline(0.0)
        assert timeline.admit(100.0) == 100.0
        assert timeline.admit(50.0) == 50.0   # out-of-order OK

    def test_burst_then_throttle(self):
        timeline = DeviceTimeline(100.0)   # one command per 100 cycles
        # Burst capacity admits QUEUE_DEPTH commands instantly.
        for _ in range(int(DeviceTimeline.QUEUE_DEPTH)):
            assert timeline.admit(0.0) == 0.0
        # The next command must queue.
        assert timeline.admit(0.0) > 0.0

    def test_refill_over_time(self):
        timeline = DeviceTimeline(100.0)
        for _ in range(int(DeviceTimeline.QUEUE_DEPTH)):
            timeline.admit(0.0)
        # After a long gap, credit has refilled: no queueing.
        assert timeline.admit(1_000_000.0) == 1_000_000.0

    def test_sustained_rate_enforced(self):
        timeline = DeviceTimeline(100.0)
        last = 0.0
        for i in range(500):
            last = timeline.admit(0.0)
        # 500 commands at 1/100cycles: completion ~ (500-depth)*100.
        assert last >= (500 - DeviceTimeline.QUEUE_DEPTH - 1) * 100


class TestBandwidthTimeline:
    def test_below_rate_no_delay(self):
        bw = BandwidthTimeline(2.4e9)   # 1 byte/cycle
        # 1000 bytes at t=1e6: well within burst.
        assert bw.admit(1e6, 1000) == 1e6

    def test_saturation_delays(self):
        bw = BandwidthTimeline(2.4e9)   # 1 byte/cycle
        total = 0
        t = 0.0
        # Pump 10 MB instantly: far beyond the 1 MB burst.
        end = bw.admit(0.0, 10 * units.MIB)
        assert end > 0.0
        assert end >= (10 * units.MIB - BandwidthTimeline.BURST_BYTES) * (2.4e9 / 2.4e9) / 2.4e9 * 2.4e9 - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BandwidthTimeline(0)


class TestBlockDevice:
    def _device(self, **kwargs):
        return BlockDevice(
            name="test",
            capacity_bytes=units.MIB,
            read_latency_cycles=1000,
            write_latency_cycles=2000,
            read_cycles_per_byte=0.5,
            write_cycles_per_byte=1.0,
            **kwargs,
        )

    def test_read_write_roundtrip(self):
        device = self._device()
        clock = CycleClock()
        payload = bytes(range(100))
        device.submit(clock, 500, 100, is_write=True, data=payload)
        assert device.submit(clock, 500, 100, is_write=False) == payload

    def test_service_time_model(self):
        device = self._device()
        assert device.service_cycles(4096, is_write=False) == 1000 + 2048
        assert device.service_cycles(4096, is_write=True) == 2000 + 4096

    def test_blocking_submit_waits(self):
        device = self._device()
        clock = CycleClock()
        device.submit(clock, 0, 4096, is_write=False)
        assert clock.now == pytest.approx(1000 + 2048)

    def test_async_submit_does_not_block(self):
        device = self._device()
        clock = CycleClock()
        completion = device.submit_async(clock, 0, 4096, is_write=False)
        assert clock.now == 0
        assert completion == pytest.approx(1000 + 2048)

    def test_write_requires_data(self):
        device = self._device()
        with pytest.raises(ValueError):
            device.submit(CycleClock(), 0, 10, is_write=True, data=None)
        with pytest.raises(ValueError):
            device.submit(CycleClock(), 0, 10, is_write=True, data=b"wrong-size!")

    def test_stats(self):
        device = self._device()
        clock = CycleClock()
        device.submit(clock, 0, 4096, is_write=False)
        device.submit(clock, 0, 100, is_write=True, data=bytes(100))
        assert device.reads == 1 and device.writes == 1
        assert device.bytes_read == 4096 and device.bytes_written == 100

    def test_iops_cap_queues(self):
        device = self._device(read_iops_cap=1000.0)   # 2.4M cycles/op
        clock = CycleClock()
        for _ in range(int(DeviceTimeline.QUEUE_DEPTH) + 10):
            device.submit_async(clock, 0, 4096, is_write=False)
        last = device.submit_async(clock, 0, 4096, is_write=False)
        assert last > 1000 + 2048, "saturated device must queue"
