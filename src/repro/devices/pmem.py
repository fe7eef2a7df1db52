"""pmem device model: a DRAM-backed byte-addressable NVM block device.

The paper uses a ``pmem`` block device (DRAM-backed, [54]) "in experiments
where we want to stress the software path of the Linux kernel"
(Section 5).  Its media is as fast as DRAM, so all observable cost is the
software that touches it:

* accessed as a **block device** in the kernel fault path, a 4 KB read
  costs the kernel's non-SIMD copy (2400 cycles) plus bio bookkeeping —
  together the "49% device I/O" share of the 5380-cycle Linux fault in
  Figure 8(a);
* accessed through **DAX** from Aquila, a 4 KB read is an AVX2 streaming
  copy plus FPU save/restore = 1200 cycles (Section 3.3).

The DAX window exposes the same backing store byte-addressably.
"""

from __future__ import annotations

from repro.common import constants, units
from repro.devices.block import BlockDevice
from repro.fault.plan import FAULT_NONE
from repro.hw.fpu import FPUContext
from repro.sim.clock import CycleClock

#: bio/submission bookkeeping so that kernel-path 4 KB reads cost 2636
#: cycles: 49% of the 5380-cycle Linux fault of Figure 8(a).
PMEM_BIO_OVERHEAD_CYCLES = 236

PMEM_CYCLES_PER_BYTE = constants.MEMCPY_4K_NOSIMD_CYCLES / units.PAGE_SIZE

#: Aggregate DRAM-media bandwidth shared by all threads touching the
#: device (a dual-socket DDR4-2400 machine sustains ~40 GB/s of random
#: copy traffic); this is what bounds Aquila's scaling once locks are gone.
PMEM_MEDIA_BANDWIDTH = 40 * units.GIB


class PmemDevice(BlockDevice):
    """DRAM-backed pmem block device with a DAX access window."""

    #: A pmem "spike" is a row-buffer/refresh-class stall, orders of
    #: magnitude shorter than an SSD internal-GC pause.
    fault_latency_scale = 0.01

    def __init__(self, capacity_bytes: int = 128 * units.GIB, name: str = "pmem0") -> None:
        super().__init__(
            name=name,
            capacity_bytes=capacity_bytes,
            read_latency_cycles=PMEM_BIO_OVERHEAD_CYCLES,
            write_latency_cycles=PMEM_BIO_OVERHEAD_CYCLES,
            read_cycles_per_byte=PMEM_CYCLES_PER_BYTE,
            write_cycles_per_byte=PMEM_CYCLES_PER_BYTE,
            read_iops_cap=None,   # media is DRAM: no command-rate limit
            write_iops_cap=None,
            media_bandwidth_bytes_per_sec=PMEM_MEDIA_BANDWIDTH,
        )

    # -- DAX path ---------------------------------------------------------

    def dax_read(
        self,
        clock: CycleClock,
        fpu: FPUContext,
        offset: int,
        nbytes: int,
        category: str = "io.dax",
    ) -> bytes:
        """Copy ``nbytes`` out of the DAX window into DRAM.

        No syscall, no bio: just the memcpy cost of the caller's copy
        strategy (SIMD for Aquila, Section 3.3).
        """
        media_done = (
            self.media.admit(clock.now, nbytes) if self.media is not None else 0.0
        )
        if self.faults is not None:
            self._dax_fault(clock, offset, nbytes, is_write=False, data=None)
        fpu.charge_copy(clock, nbytes, category)
        if media_done > clock.now:
            clock.wait_until(media_done, "idle.membw")
        self.reads += 1
        self.bytes_read += nbytes
        return self.store.read(offset, nbytes)

    def dax_write(
        self,
        clock: CycleClock,
        fpu: FPUContext,
        offset: int,
        data: bytes,
        category: str = "io.dax",
    ) -> None:
        """Copy ``data`` from DRAM into the DAX window."""
        media_done = (
            self.media.admit(clock.now, len(data)) if self.media is not None else 0.0
        )
        if self.faults is not None:
            self._dax_fault(clock, offset, len(data), is_write=True, data=data)
        fpu.charge_copy(clock, len(data), category)
        if media_done > clock.now:
            clock.wait_until(media_done, "idle.membw")
        self.writes += 1
        self.bytes_written += len(data)
        self.store.write(offset, data)

    def _dax_fault(
        self, clock: CycleClock, offset: int, nbytes: int, is_write: bool, data
    ) -> None:
        """Consult the armed fault plan on the DAX path (poison/ECC stalls).

        Latency spikes block the copy (charged as a fault-latency wait);
        errors model a poisoned line raising a machine-check the DAX
        layer reports as a transient failure; torn writes land a prefix
        (cacheline-granular persistence without a fence).  Callers skip
        the call while no plan is armed.
        """
        decision = self.faults.decide(clock.now, is_write, nbytes)
        if decision.kind == FAULT_NONE:
            return
        extra = self._apply_fault(decision, offset, nbytes, is_write, data)
        clock.wait_until(clock.now + extra, "idle.fault.latency")
