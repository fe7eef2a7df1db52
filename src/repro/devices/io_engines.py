"""I/O access paths: the different ways software reaches a device.

The same physical device can be reached through paths with very different
software cost (paper Figure 8(c)):

=================  =========================================================
Path               Cost structure
=================  =========================================================
kernel-fault       inside the kernel's own fault handler: device service
                   only (Linux mmio miss path)
host-syscall       read/write syscall (or vmcall from non-root ring 0) +
                   VFS/direct-I/O setup + device service (+ IRQ completion
                   for interrupt-driven devices)
spdk               user-space polled queue pair: doorbell + busy-poll until
                   completion, no kernel involvement
dax                load/store window: a memcpy with the caller's copy
                   strategy, no commands at all
=================  =========================================================

All paths move real data through the device's backing store.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.common import constants
from repro.devices.block import BlockDevice
from repro.devices.pmem import PmemDevice
from repro.fault.retry import RetryPolicy, with_retries
from repro.hw.fpu import FPUContext
from repro.hw.vmx import VMXCostModel
from repro.sim.clock import CycleClock


class IOPath:
    """Abstract device access path.

    All paths share the transient-fault policy of :mod:`repro.fault`:
    a command failing with a retryable error is reissued with backoff
    (cycles charged to the caller) before escalating — degraded runs
    stay cycle-accounted instead of dying on the first hiccup.
    """

    name = "abstract"

    #: Retry policy for transient device faults (None = stack default).
    retry_policy: Optional[RetryPolicy] = None

    def read(
        self, clock: CycleClock, offset: int, nbytes: int, category: str = "io"
    ) -> bytes:
        """Read ``nbytes`` at ``offset``; blocks the clock for the path cost."""
        raise NotImplementedError

    def write(
        self, clock: CycleClock, offset: int, data: bytes, category: str = "io"
    ) -> None:
        """Write ``data`` at ``offset``; blocks the clock for the path cost."""
        raise NotImplementedError


class KernelFaultIO(IOPath):
    """Device access from inside the kernel fault handler (no syscall).

    Interrupt-driven devices (NVMe) still pay the IRQ completion +
    block-and-wake overhead; pmem completes synchronously in the
    submitter's context for free.
    """

    name = "kernel-fault"

    def __init__(self, device: BlockDevice, interrupt_driven: Optional[bool] = None) -> None:
        self.device = device
        if interrupt_driven is None:
            interrupt_driven = not isinstance(device, PmemDevice)
        self.interrupt_driven = interrupt_driven

    def _completion_overhead(self, clock: CycleClock, category: str) -> None:
        if self.interrupt_driven:
            clock.charge(category + ".irq", constants.HOST_NVME_COMPLETION_CYCLES)

    def read(self, clock: CycleClock, offset: int, nbytes: int, category: str = "io") -> bytes:
        data = with_retries(
            clock,
            lambda: self.device.submit(
                clock, offset, nbytes, is_write=False,
                wait_category="idle." + category + ".device",
            ),
            category,
            self.retry_policy,
        )
        self._completion_overhead(clock, category)
        return data

    def write(self, clock: CycleClock, offset: int, data: bytes, category: str = "io") -> None:
        with_retries(
            clock,
            lambda: self.device.submit(
                clock,
                offset,
                len(data),
                is_write=True,
                data=data,
                wait_category="idle." + category + ".device",
            ),
            category,
            self.retry_policy,
        )
        self._completion_overhead(clock, category)


class HostSyscallIO(IOPath):
    """Explicit direct-I/O syscalls to the host OS.

    From ring 3 this is a plain syscall; from VMX non-root ring 0 the same
    request becomes a vmcall, which is why Aquila avoids this path in the
    common case (paper Sections 3.3 and 4.4).
    """

    name = "host-syscall"

    def __init__(self, device: BlockDevice, vmx: VMXCostModel, interrupt_driven: Optional[bool] = None) -> None:
        self.device = device
        self.vmx = vmx
        if interrupt_driven is None:
            # pmem completes synchronously in the submitter's context;
            # NVMe completions arrive by interrupt.
            interrupt_driven = not isinstance(device, PmemDevice)
        self.interrupt_driven = interrupt_driven

    def _syscall_overhead(self, clock: CycleClock, category: str) -> None:
        self.vmx.syscall(clock, category + ".syscall")
        clock.charge(category + ".vfs", constants.HOST_DIRECT_IO_SETUP_CYCLES)

    def _completion_overhead(self, clock: CycleClock, category: str) -> None:
        if self.interrupt_driven:
            clock.charge(category + ".irq", constants.HOST_NVME_COMPLETION_CYCLES)

    def read(self, clock: CycleClock, offset: int, nbytes: int, category: str = "io") -> bytes:
        self._syscall_overhead(clock, category)
        # Retries happen inside the kernel block layer: no extra syscall.
        data = with_retries(
            clock,
            lambda: self.device.submit(
                clock, offset, nbytes, is_write=False,
                wait_category="idle." + category + ".device",
            ),
            category,
            self.retry_policy,
        )
        self._completion_overhead(clock, category)
        return data

    def write(self, clock: CycleClock, offset: int, data: bytes, category: str = "io") -> None:
        self._syscall_overhead(clock, category)
        with_retries(
            clock,
            lambda: self.device.submit(
                clock,
                offset,
                len(data),
                is_write=True,
                data=data,
                wait_category="idle." + category + ".device",
            ),
            category,
            self.retry_policy,
        )
        self._completion_overhead(clock, category)


class SpdkIO(IOPath):
    """SPDK polled-mode access: no syscalls, busy-poll for completion.

    Polling burns CPU while waiting (charged as ``.poll`` rather than idle)
    — the known trade-off of kernel-bypass frameworks the paper discusses
    in Section 7.1.
    """

    name = "spdk"

    def __init__(self, device: BlockDevice) -> None:
        self.device = device

    def read(self, clock: CycleClock, offset: int, nbytes: int, category: str = "io") -> bytes:
        # A user-space resubmission pays the doorbell again, so the whole
        # submit/poll sequence sits inside the retry loop.
        def attempt() -> bytes:
            clock.charge(category + ".submit", constants.SPDK_SUBMIT_CYCLES)
            return self.device.submit(
                clock, offset, nbytes, is_write=False, wait_category=category + ".poll"
            )

        data = with_retries(clock, attempt, category, self.retry_policy)
        clock.charge(category + ".complete", constants.SPDK_COMPLETION_CYCLES)
        return data

    def write(self, clock: CycleClock, offset: int, data: bytes, category: str = "io") -> None:
        def attempt() -> None:
            clock.charge(category + ".submit", constants.SPDK_SUBMIT_CYCLES)
            self.device.submit(
                clock,
                offset,
                len(data),
                is_write=True,
                data=data,
                wait_category=category + ".poll",
            )

        with_retries(clock, attempt, category, self.retry_policy)
        clock.charge(category + ".complete", constants.SPDK_COMPLETION_CYCLES)


class DaxIO(IOPath):
    """DAX load/store access to a pmem device: just a memcpy.

    Aquila's optimized path: AVX2 streaming copy + FPU save/restore = 1200
    cycles per 4 KB page (paper Section 3.3).
    """

    name = "dax"

    def __init__(self, device: PmemDevice, use_simd: bool = True) -> None:
        if not isinstance(device, PmemDevice):
            raise TypeError("DAX requires a byte-addressable (pmem) device")
        self.device = device
        self.fpu = FPUContext(use_simd=use_simd)

    def read(self, clock: CycleClock, offset: int, nbytes: int, category: str = "io") -> bytes:
        return with_retries(
            clock,
            partial(self.device.dax_read, clock, self.fpu, offset, nbytes, category + ".dax"),
            category,
            self.retry_policy,
        )

    def write(self, clock: CycleClock, offset: int, data: bytes, category: str = "io") -> None:
        with_retries(
            clock,
            lambda: self.device.dax_write(clock, self.fpu, offset, data, category + ".dax"),
            category,
            self.retry_policy,
        )
