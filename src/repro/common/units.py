"""Size and time unit helpers used across the simulation.

The paper's testbed runs at 2.4 GHz (dual Intel Xeon E5-2630 v3, Section 5),
so all conversions between cycles and wall-clock time use that frequency.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

PAGE_SIZE = 4 * KIB
PAGE_SHIFT = 12

#: The one all-zero page object.  Device stores keep every all-zero page
#: as this object and frame pools read unwritten frames as it, so a frame
#: filled from a zero device page holds the very object the device does.
ZERO_PAGE = bytes(PAGE_SIZE)

CPU_FREQ_HZ = 2_400_000_000  # 2.4 GHz (paper Section 5)


def pages(nbytes: int) -> int:
    """Number of 4 KiB pages needed to hold ``nbytes`` (rounded up)."""
    return (nbytes + PAGE_SIZE - 1) >> PAGE_SHIFT


def page_align_up(addr: int) -> int:
    """Round ``addr`` up to a 4 KiB page boundary."""
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def page_offset(addr: int) -> int:
    """Byte offset of ``addr`` within its page."""
    return addr & (PAGE_SIZE - 1)


def cycles_to_us(cycles: float) -> float:
    """Convert CPU cycles to microseconds at the testbed frequency."""
    return cycles * 1e6 / CPU_FREQ_HZ


def cycles_to_seconds(cycles: float) -> float:
    """Convert CPU cycles to seconds at the testbed frequency."""
    return cycles / CPU_FREQ_HZ


def us_to_cycles(us: float) -> float:
    """Convert microseconds to CPU cycles at the testbed frequency."""
    return us * CPU_FREQ_HZ / 1e6
