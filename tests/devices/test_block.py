"""Backing store, token-bucket timelines, and the generic block device."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import units
from repro.common.errors import OutOfSpaceError
from repro.devices.block import (
    BackingStore,
    BandwidthTimeline,
    BlockDevice,
    DeviceTimeline,
)
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
