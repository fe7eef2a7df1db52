"""Virtual memory areas and the two VMA stores the paper contrasts.

A VMA describes one mapping: a virtual page range, its backing file, and
protection flags.  Address-range updates (mmap/munmap/mremap) are rare;
per-fault validity lookups are the common path (paper Section 3.4).

* :class:`LinuxVMAStore` keeps VMAs in a red-black tree behind a
  read-write lock (``mmap_sem``) — faults take it for reading, updates for
  writing.  "Other work has shown that this lock can limit scalability in
  servers with a large number of cores, even in cases where it is acquired
  as a read lock."
* :class:`AquilaVMAStore` keeps a RadixVM-style radix tree with per-entry
  locks: lookups touch only the faulting entry's stripe; updates lock only
  the affected entries.  Reference counting uses a single shared count,
  off the common path (Section 3.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.common import constants, units
from repro.common.errors import SegmentationFault
from repro.mem.radix import RadixTree
from repro.mem.sorted_map import SortedMap
from repro.mmio.files import BackingFile
from repro.sim.clock import CycleClock
from repro.sim.locks import RWLockTimeline, StripedAtomicTimeline

PROT_READ = 0x1
PROT_WRITE = 0x2

MADV_NORMAL = 0
MADV_RANDOM = 1
MADV_SEQUENTIAL = 2
MADV_WILLNEED = 3
MADV_DONTNEED = 4


@dataclass
class VMA:
    """One virtual memory area (shared, file-backed)."""

    vma_id: int
    start_vpn: int
    num_pages: int
    file: BackingFile
    file_start_page: int = 0
    prot: int = PROT_READ | PROT_WRITE
    advice: int = MADV_NORMAL

    @property
    def end_vpn(self) -> int:
        """One past the last virtual page of this area."""
        return self.start_vpn + self.num_pages

    def contains(self, vpn: int) -> bool:
        """Whether ``vpn`` falls inside this area."""
        return self.start_vpn <= vpn < self.end_vpn

    def file_page_of(self, vpn: int) -> int:
        """The file page backing virtual page ``vpn``."""
        if not self.contains(vpn):
            raise SegmentationFault(vpn << units.PAGE_SHIFT)
        return self.file_start_page + (vpn - self.start_vpn)


class VMAStore:
    """Abstract VMA container with fault-time lookup."""

    _ids = itertools.count(1)

    def __init__(self) -> None:
        self._next_vpn = 0x7F00_0000_0  # bump allocator for mapping addresses
        self.lookups = 0

    def _allocate_range(self, num_pages: int) -> int:
        start = self._next_vpn
        # Leave a guard page between mappings, as mmap implementations do.
        self._next_vpn += num_pages + 1
        return start

    def insert(self, clock: CycleClock, vma: VMA) -> None:
        raise NotImplementedError

    def remove(self, clock: CycleClock, vma: VMA) -> None:
        raise NotImplementedError

    def lookup(self, clock: CycleClock, vpn: int) -> Optional[VMA]:
        """Fault-path validity check for ``vpn``."""
        raise NotImplementedError

    def mmap(
        self,
        clock: CycleClock,
        file: BackingFile,
        num_pages: Optional[int] = None,
        file_start_page: int = 0,
        prot: int = PROT_READ | PROT_WRITE,
    ) -> VMA:
        """Create a new area over ``file`` and insert it."""
        if num_pages is None:
            num_pages = file.size_pages - file_start_page
        if num_pages <= 0:
            raise ValueError("mapping must cover at least one page")
        if file_start_page + num_pages > file.size_pages:
            raise ValueError("mapping extends past end of file")
        vma = VMA(
            vma_id=next(VMAStore._ids),
            start_vpn=self._allocate_range(num_pages),
            num_pages=num_pages,
            file=file,
            file_start_page=file_start_page,
            prot=prot,
        )
        self.insert(clock, vma)
        return vma


class LinuxVMAStore(VMAStore):
    """Red-black tree of VMAs behind ``mmap_sem`` (a sorted map on the host)."""

    def __init__(self) -> None:
        super().__init__()
        self.mmap_sem = RWLockTimeline("mmap_sem")
        self._tree = SortedMap()   # key: start_vpn -> VMA

    def insert(self, clock: CycleClock, vma: VMA) -> None:
        self.mmap_sem.acquire_write(clock)
        clock.charge("vma.update", constants.LINUX_VMA_LOOKUP_CYCLES * 2)
        self._tree.insert(vma.start_vpn, vma)
        self.mmap_sem.release_write(clock)

    def remove(self, clock: CycleClock, vma: VMA) -> None:
        self.mmap_sem.acquire_write(clock)
        clock.charge("vma.update", constants.LINUX_VMA_LOOKUP_CYCLES * 2)
        self._tree.remove(vma.start_vpn)
        self.mmap_sem.release_write(clock)

    def lookup(self, clock: CycleClock, vpn: int) -> Optional[VMA]:
        self.lookups += 1
        self.mmap_sem.acquire_read(clock, wait_category="idle.lock.mmap_sem")
        clock.charge("fault.vma_lookup", constants.LINUX_VMA_LOOKUP_CYCLES)
        found = self._tree.floor(vpn)
        self.mmap_sem.release_read(clock)
        if found is None:
            return None
        vma = found[1]
        return vma if vma.contains(vpn) else None


class AquilaVMAStore(VMAStore):
    """RadixVM-style radix tree with per-entry locking."""

    def __init__(self, stripes: int = 1024) -> None:
        super().__init__()
        self._radix = RadixTree()
        self._entry_locks = StripedAtomicTimeline(stripes, "vma.radix")
        # Single shared refcount, off the common path (Section 3.4).
        self.refcount = 0

    def insert(self, clock: CycleClock, vma: VMA) -> None:
        # Range update: populate one radix entry per page; per-entry locks
        # mean no global serialization.  Cost amortized per page.
        clock.charge("vma.update", constants.AQUILA_VMA_LOOKUP_CYCLES)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            self._radix.insert(vpn, vma)
        clock.charge("vma.update", 5 * vma.num_pages)
        self.refcount += 1

    def remove(self, clock: CycleClock, vma: VMA) -> None:
        clock.charge("vma.update", constants.AQUILA_VMA_LOOKUP_CYCLES)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            self._radix.remove(vpn)
        clock.charge("vma.update", 5 * vma.num_pages)
        self.refcount -= 1

    def lookup(self, clock: CycleClock, vpn: int) -> Optional[VMA]:
        """Validity check + per-entry lock (paper Section 3.4 items 1-2)."""
        self.lookups += 1
        clock.charge("fault.vma_lookup", constants.AQUILA_VMA_LOOKUP_CYCLES)
        self._entry_locks.atomic_op(clock, vpn, cost=0.0)
        return self._radix.get(vpn)
