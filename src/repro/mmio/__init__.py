"""Memory-mapped I/O engines and explicit-I/O baseline."""

from repro.mmio.aquila import AquilaEngine
from repro.mmio.engine import Mapping, MmioEngine
from repro.mmio.explicit import ExplicitIOEngine
from repro.mmio.files import BackingFile, ExtentAllocator, ExtentFile
from repro.mmio.kmmap import KmmapEngine
from repro.mmio.linux_mmap import LinuxMmapEngine
from repro.mmio.vma import (
    MADV_DONTNEED,
    MADV_NORMAL,
    MADV_RANDOM,
    MADV_SEQUENTIAL,
    MADV_WILLNEED,
    PROT_READ,
    PROT_WRITE,
    VMA,
    AquilaVMAStore,
    LinuxVMAStore,
    VMAStore,
)

__all__ = [
    "AquilaEngine",
    "Mapping",
    "MmioEngine",
    "ExplicitIOEngine",
    "BackingFile",
    "ExtentAllocator",
    "ExtentFile",
    "KmmapEngine",
    "LinuxMmapEngine",
    "MADV_DONTNEED",
    "MADV_NORMAL",
    "MADV_RANDOM",
    "MADV_SEQUENTIAL",
    "MADV_WILLNEED",
    "PROT_READ",
    "PROT_WRITE",
    "VMA",
    "AquilaVMAStore",
    "LinuxVMAStore",
    "VMAStore",
]
