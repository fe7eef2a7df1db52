"""Guest page table: GVA -> GPA translation (x86-64 4-level semantics).

Both Linux and Aquila use a single page table shared by all threads of a
process (paper Section 3.4: "We choose to have a single page table shared
by all cores, similar to what common OSes do").  The table stores, per
virtual page number, the guest-physical frame and the protection/state
bits the engines rely on: present, writable, dirty, accessed.

Dirty tracking through write faults (Section 3.2): a page faulted for read
is mapped read-only; the first write takes a second (protection) fault in
which the engine marks the page dirty and sets the writable bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple


@dataclass
class PTE:
    """One page-table entry."""

    frame: int
    writable: bool = False
    dirty: bool = False
    accessed: bool = False


class PageTable:
    """Per-process page table mapping virtual page numbers to frames."""

    def __init__(self) -> None:
        entries: Dict[int, PTE] = {}
        self._entries = entries
        #: ``lookup(vpn)``: the PTE for ``vpn`` or None when not present.
        #: The entry dict's own ``get``, so a hit costs one C call.
        self.lookup: Callable[[int], Optional[PTE]] = entries.get
        self.installs = 0
        self.removals = 0

    def install(self, vpn: int, frame: int, writable: bool = False) -> PTE:
        """Create (or replace) the mapping for ``vpn``."""
        pte = PTE(frame=frame, writable=writable, accessed=True)
        self._entries[vpn] = pte
        self.installs += 1
        return pte

    def set_writable(self, vpn: int, writable: bool = True) -> None:
        """Update the writable bit of an existing mapping."""
        self._entries[vpn].writable = writable

    def mark_dirty(self, vpn: int) -> None:
        """Set the dirty bit of an existing mapping."""
        self._entries[vpn].dirty = True

    def clear_dirty(self, vpn: int) -> None:
        """Clear the dirty bit (after writeback)."""
        pte = self._entries.get(vpn)
        if pte is not None:
            pte.dirty = False

    def remove(self, vpn: int) -> Optional[PTE]:
        """Tear down the mapping for ``vpn``; returns the old entry."""
        pte = self._entries.pop(vpn, None)
        if pte is not None:
            self.removals += 1
        return pte

    def remove_many(self, vpns: Iterable[int]) -> None:
        """Tear down the mappings of ``vpns`` (absent ones are skipped)."""
        entries = self._entries
        removed = 0
        for vpn in vpns:
            if entries.pop(vpn, None) is not None:
                removed += 1
        self.removals += removed

    def mapped_range(self, start_vpn: int, count: int) -> Iterator[Tuple[int, PTE]]:
        """Iterate present mappings within ``[start_vpn, start_vpn+count)``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        # Iterate the smaller side: the range or the table.
        if count < len(self._entries):
            for vpn in range(start_vpn, start_vpn + count):
                pte = self._entries.get(vpn)
                if pte is not None:
                    yield vpn, pte
        else:
            end = start_vpn + count
            for vpn in sorted(self._entries):
                if start_vpn <= vpn < end:
                    yield vpn, self._entries[vpn]

    def entries(self) -> Iterator[Tuple[int, PTE]]:
        """Iterate every present ``(vpn, PTE)`` mapping (insertion order)."""
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def frames_in_use(self) -> Dict[int, int]:
        """Map of frame -> vpn for every present mapping (reverse map)."""
        return {pte.frame: vpn for vpn, pte in self._entries.items()}
