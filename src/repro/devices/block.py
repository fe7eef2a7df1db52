"""Storage backing store and the generic block-device timing model.

Devices store **real bytes** (DESIGN.md Section 4, item 2): every read
returns exactly what was written, so data-integrity tests can verify the
whole stack end to end.  Each device byte is held once: all-zero pages
share one object and a discarded (TRIMmed) range holds nothing.  Timing
is modeled per device with three parameters taken from datasheets:

* fixed per-command service latency,
* a per-byte transfer cost (bandwidth cap),
* a minimum command inter-arrival time (IOPS cap), enforced by a timeline
  shared by all submitters.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common import units
from repro.common.errors import OutOfSpaceError, TornWriteError, TransientDeviceError
from repro.common.units import ZERO_PAGE
from repro.fault.plan import (
    FAULT_ERROR,
    FAULT_LATENCY,
    FAULT_NONE,
    FAULT_TORN,
    DeviceFaultInjector,
    active_plan,
)
from repro.obs import METRICS
from repro.sim.clock import CycleClock


class BackingStore:
    """Sparse page-granularity byte storage for one device.

    A stored page whose bytes are all zero is the shared ``ZERO_PAGE``
    object, so a preallocated, still-empty file costs one dict slot per
    page rather than 4 KiB.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._pages: Dict[int, bytes] = {}

    @property
    def capacity_pages(self) -> int:
        """Device capacity in 4 KiB pages."""
        return self.capacity_bytes // units.PAGE_SIZE

    def _check(self, page_index: int) -> None:
        if not 0 <= page_index < self.capacity_pages:
            raise OutOfSpaceError(
                f"page {page_index} beyond device capacity "
                f"({self.capacity_pages} pages)"
            )

    def read_page(self, page_index: int) -> bytes:
        """The 4 KiB contents of ``page_index`` (zeros if not stored)."""
        self._check(page_index)
        return self._pages.get(page_index, ZERO_PAGE)

    def write_page(self, page_index: int, data: bytes) -> None:
        """Replace the 4 KiB contents of ``page_index``."""
        self._check(page_index)
        if len(data) != units.PAGE_SIZE:
            raise ValueError(f"write_page needs {units.PAGE_SIZE} bytes, got {len(data)}")
        page = bytes(data)
        self._pages[page_index] = ZERO_PAGE if page == ZERO_PAGE else page

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read an arbitrary byte range (page-spanning allowed).

        One page-aligned page comes back as the stored page object itself
        (bytes are immutable, so this is the same value the chunked copy
        would build).
        """
        if nbytes < 0 or offset < 0:
            raise ValueError("negative offset or size")
        if offset + nbytes > self.capacity_bytes:
            raise OutOfSpaceError("read beyond device capacity")
        if nbytes == units.PAGE_SIZE and not offset & (units.PAGE_SIZE - 1):
            return self._pages.get(offset >> units.PAGE_SHIFT, ZERO_PAGE)
        chunks = []
        pos = offset
        remaining = nbytes
        while remaining > 0:
            page_index = pos >> units.PAGE_SHIFT
            in_page = pos & (units.PAGE_SIZE - 1)
            take = min(remaining, units.PAGE_SIZE - in_page)
            chunks.append(self.read_page(page_index)[in_page : in_page + take])
            pos += take
            remaining -= take
        return b"".join(chunks)

    def write(self, offset: int, data: bytes) -> None:
        """Write an arbitrary byte range (page-spanning allowed)."""
        if offset < 0:
            raise ValueError("negative offset")
        if offset + len(data) > self.capacity_bytes:
            raise OutOfSpaceError("write beyond device capacity")
        pos = offset
        written = 0
        while written < len(data):
            page_index = pos >> units.PAGE_SHIFT
            in_page = pos & (units.PAGE_SIZE - 1)
            take = min(len(data) - written, units.PAGE_SIZE - in_page)
            page = bytearray(self.read_page(page_index))
            page[in_page : in_page + take] = data[written : written + take]
            page = bytes(page)
            self._pages[page_index] = ZERO_PAGE if page == ZERO_PAGE else page
            pos += take
            written += take

    def discard(self, offset: int, nbytes: int) -> None:
        """TRIM the page-aligned range ``[offset, offset + nbytes)``.

        Its pages are dropped from the store and read as zeros until
        written again.  A discard moves no data, so no caller charges
        cycles or counts a device command for it.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or size")
        if (offset | nbytes) & (units.PAGE_SIZE - 1):
            raise ValueError("discard range must be page-aligned")
        if offset + nbytes > self.capacity_bytes:
            raise OutOfSpaceError("discard beyond device capacity")
        pages = self._pages
        first = offset >> units.PAGE_SHIFT
        for page_index in range(first, first + (nbytes >> units.PAGE_SHIFT)):
            pages.pop(page_index, None)

    def used_pages(self) -> int:
        """Number of pages currently stored (written and not discarded)."""
        return len(self._pages)

    def snapshot(self) -> Dict[int, bytes]:
        """A copy of every written page, by page index (durable state)."""
        return dict(self._pages)

    def restore(self, pages: Dict[int, bytes]) -> None:
        """Replace the stored contents with a :meth:`snapshot`'s pages."""
        self._pages = dict(pages)


class DeviceTimeline:
    """Enforces a device's IOPS cap across all submitting threads.

    Token-bucket model: command credits refill at the IOPS rate up to a
    burst of ``QUEUE_DEPTH`` (device-internal queueing).  A command finding
    no credit queues, which is how device saturation shows up as latency
    (the "bottleneck is the NVMe device itself" plateaus of Figures 5/9).

    A token bucket — unlike a strict monotone timeline — tolerates the
    discrete-event executor's op-granularity reordering: submissions whose
    local clocks arrive slightly out of order do not artificially delay
    one another while the device is below saturation.
    """

    QUEUE_DEPTH = 128.0

    def __init__(self, min_interarrival_cycles: float) -> None:
        if min_interarrival_cycles < 0:
            raise ValueError("inter-arrival must be non-negative")
        self.min_interarrival_cycles = min_interarrival_cycles
        self._tokens = self.QUEUE_DEPTH
        self._last_refill = 0.0
        self.commands = 0
        self.total_queue_cycles = 0.0

    def admit(self, now: float) -> float:
        """Admission time for a command submitted at ``now``."""
        self.commands += 1
        if self.min_interarrival_cycles == 0:
            return now
        if now > self._last_refill:
            refill = (now - self._last_refill) / self.min_interarrival_cycles
            self._tokens = min(self.QUEUE_DEPTH, self._tokens + refill)
            self._last_refill = now
        self._tokens -= 1.0
        if self._tokens >= 0:
            return now
        delay = -self._tokens * self.min_interarrival_cycles
        self.total_queue_cycles += delay
        return max(now, self._last_refill) + delay


class BandwidthTimeline:
    """Aggregate media-bandwidth cap shared by all accessors of a device.

    Each transfer reserves the media for ``nbytes * cycles_per_byte``;
    concurrent transfers queue.  Used for pmem, whose DRAM-backed media
    saturates around real DRAM bandwidth even though individual accesses
    are cheap.
    """

    #: Burst capacity: bytes the media can absorb instantly (row buffers,
    #: queues) before the rate limit bites.
    BURST_BYTES = 1 << 20

    def __init__(self, bandwidth_bytes_per_sec: float) -> None:
        if bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        self.cycles_per_byte = units.CPU_FREQ_HZ / bandwidth_bytes_per_sec
        self._tokens = float(self.BURST_BYTES)
        self._last_refill = 0.0
        self.total_bytes = 0
        self.total_queue_cycles = 0.0

    def admit(self, now: float, nbytes: int) -> float:
        """Reserve media bandwidth for ``nbytes``; returns completion time.

        Token bucket (see :class:`DeviceTimeline` for why): transfers pay
        a delay only when aggregate traffic exceeds the media rate.
        """
        self.total_bytes += nbytes
        if now > self._last_refill:
            refill = (now - self._last_refill) / self.cycles_per_byte
            self._tokens = min(float(self.BURST_BYTES), self._tokens + refill)
            self._last_refill = now
        self._tokens -= nbytes
        if self._tokens >= 0:
            return now
        delay = -self._tokens * self.cycles_per_byte
        self.total_queue_cycles += delay
        return max(now, self._last_refill) + delay


class BlockDevice:
    """A block device with real contents and a calibrated timing model."""

    #: Device-specific multiplier on injected latency spikes (an NVMe
    #: internal-GC stall is much longer than a DRAM-media hiccup).
    fault_latency_scale = 1.0

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        read_latency_cycles: float,
        write_latency_cycles: float,
        read_cycles_per_byte: float,
        write_cycles_per_byte: float,
        read_iops_cap: Optional[float] = None,
        write_iops_cap: Optional[float] = None,
        media_bandwidth_bytes_per_sec: Optional[float] = None,
    ) -> None:
        self.name = name
        self.store = BackingStore(capacity_bytes)
        self.read_latency_cycles = read_latency_cycles
        self.write_latency_cycles = write_latency_cycles
        self.read_cycles_per_byte = read_cycles_per_byte
        self.write_cycles_per_byte = write_cycles_per_byte
        self._read_timeline = self._make_timeline(read_iops_cap)
        self._write_timeline = self._make_timeline(write_iops_cap)
        self.media = (
            BandwidthTimeline(media_bandwidth_bytes_per_sec)
            if media_bandwidth_bytes_per_sec is not None
            else None
        )
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.faults: Optional[DeviceFaultInjector] = None
        plan = active_plan()
        if plan is not None:
            self.attach_faults(plan.injector_for(self.name))
        METRICS.bind_object(
            f"device.{self.name}",
            self,
            {
                "reads": "reads",
                "writes": "writes",
                "bytes_read": "bytes_read",
                "bytes_written": "bytes_written",
                "queue_cycles.read": lambda dev: dev._read_timeline.total_queue_cycles,
                "queue_cycles.write": lambda dev: dev._write_timeline.total_queue_cycles,
            },
        )

    @staticmethod
    def _make_timeline(iops_cap: Optional[float]) -> DeviceTimeline:
        if iops_cap is None:
            return DeviceTimeline(0.0)
        return DeviceTimeline(units.CPU_FREQ_HZ / iops_cap)

    # -- fault injection ----------------------------------------------------

    def attach_faults(self, injector: DeviceFaultInjector) -> None:
        """Make every command consult ``injector`` (see :mod:`repro.fault`)."""
        self.faults = injector
        METRICS.bind_object(
            f"device.{self.name}.faults",
            injector,
            {
                "errors": "errors_injected",
                "latency": "latency_injected",
                "torn": "torn_injected",
            },
        )

    def _apply_fault(
        self,
        decision,
        offset: int,
        nbytes: int,
        is_write: bool,
        data: Optional[bytes],
    ) -> float:
        """Apply a fault decision; returns extra completion latency.

        Errors and torn writes raise (after landing the torn prefix on
        the media); latency spikes return the extra service cycles.
        """
        if decision.kind == FAULT_LATENCY:
            return decision.extra_latency_cycles * self.fault_latency_scale
        if decision.kind == FAULT_TORN and is_write:
            torn_bytes = int(nbytes * decision.torn_fraction)
            if torn_bytes and data is not None:
                self.store.write(offset, data[:torn_bytes])
                self.bytes_written += torn_bytes
            raise TornWriteError(
                f"{self.name}: write at {offset} torn after {torn_bytes}/{nbytes} bytes",
                written_bytes=torn_bytes,
            )
        if decision.kind in (FAULT_ERROR, FAULT_TORN):
            verb = "write" if is_write else "read"
            raise TransientDeviceError(
                f"{self.name}: transient {verb} failure at offset {offset}"
            )
        raise ValueError(f"unknown fault kind {decision.kind!r}")

    def service_cycles(self, nbytes: int, is_write: bool) -> float:
        """Raw service time of one command, excluding queueing."""
        if is_write:
            return self.write_latency_cycles + nbytes * self.write_cycles_per_byte
        return self.read_latency_cycles + nbytes * self.read_cycles_per_byte

    def submit(
        self,
        clock: CycleClock,
        offset: int,
        nbytes: int,
        is_write: bool,
        data: Optional[bytes] = None,
        wait_category: str = "idle.io",
    ) -> Optional[bytes]:
        """Synchronously execute one command, blocking the clock.

        Returns the data for reads; stores ``data`` for writes.  The
        calling thread waits from submission to completion (queueing +
        service), charged to ``wait_category``.
        """
        timeline = self._write_timeline if is_write else self._read_timeline
        start = timeline.admit(clock.now)
        completion = start + self.service_cycles(nbytes, is_write)
        if self.media is not None:
            completion = max(completion, self.media.admit(start, nbytes))
        if self.faults is not None:
            decision = self.faults.decide(clock.now, is_write, nbytes)
            if decision.kind != FAULT_NONE:
                if decision.kind == FAULT_LATENCY:
                    completion += self._apply_fault(
                        decision, offset, nbytes, is_write, data
                    )
                else:
                    # A failed command still occupies the device for its
                    # service time before reporting the error.
                    clock.wait_until(completion, wait_category)
                    self._apply_fault(decision, offset, nbytes, is_write, data)
        clock.wait_until(completion, wait_category)

        if is_write:
            if data is None or len(data) != nbytes:
                raise ValueError("write needs data of the stated size")
            self.store.write(offset, data)
            self.writes += 1
            self.bytes_written += nbytes
            return None
        self.reads += 1
        self.bytes_read += nbytes
        return self.store.read(offset, nbytes)

    def submit_async(
        self,
        clock: CycleClock,
        offset: int,
        nbytes: int,
        is_write: bool,
        data: Optional[bytes] = None,
    ) -> float:
        """Queue one command without blocking; returns its completion time.

        Used for readahead and batched writeback, where the issuing thread
        does not wait for each individual command.  Data moves immediately
        (the simulation has no torn intermediate states to model).
        """
        timeline = self._write_timeline if is_write else self._read_timeline
        start = timeline.admit(clock.now)
        completion = start + self.service_cycles(nbytes, is_write)
        if self.media is not None:
            completion = max(completion, self.media.admit(start, nbytes))
        if self.faults is not None:
            decision = self.faults.decide(clock.now, is_write, nbytes)
            if decision.kind != FAULT_NONE:
                if decision.kind == FAULT_LATENCY:
                    completion += self._apply_fault(
                        decision, offset, nbytes, is_write, data
                    )
                else:
                    # Asynchronous submission failure: the caller learns
                    # immediately (submission-queue error), nothing landed
                    # beyond a torn prefix.
                    self._apply_fault(decision, offset, nbytes, is_write, data)
        if is_write:
            if data is None or len(data) != nbytes:
                raise ValueError("write needs data of the stated size")
            self.store.write(offset, data)
            self.writes += 1
            self.bytes_written += nbytes
        else:
            self.reads += 1
            self.bytes_read += nbytes
        return completion
