"""Device models: backing stores, NVMe, pmem/DAX, I/O paths."""

from repro.devices.block import BackingStore, BlockDevice, DeviceTimeline
from repro.devices.io_engines import (
    DaxIO,
    HostSyscallIO,
    IOPath,
    KernelFaultIO,
    SpdkIO,
)
from repro.devices.nvme import NvmeDevice
from repro.devices.pmem import PmemDevice

__all__ = [
    "BackingStore",
    "BlockDevice",
    "DeviceTimeline",
    "DaxIO",
    "HostSyscallIO",
    "IOPath",
    "KernelFaultIO",
    "SpdkIO",
    "NvmeDevice",
    "PmemDevice",
]
