"""Extended Page Table: GPA -> HPA translation under hypervisor control.

Aquila's DRAM cache lives in guest-physical address ranges; the hypervisor
backs them with host memory on demand through EPT faults (paper
Section 3.5).  An EPT fault costs a vmexit plus hypervisor handling, so
Aquila minimizes their number by using 1 GB (or 2 MB) EPT granules:
"Aquila reduces the number of EPT faults with huge pages only for GPA to
HPA translations ... in our evaluation we only use 1GB pages for cache
resizing purposes."

One EPT per process, shared by all threads (Section 3.5 modifies Dune's
per-thread EPT to per-process).
"""

from __future__ import annotations

from typing import Dict

from repro.common import constants, units
from repro.common.errors import SegmentationFault
from repro.sim.clock import CycleClock


class EPT:
    """GPA -> HPA mapping with configurable granule size."""

    GRANULES = {
        "4K": units.PAGE_SIZE,
        "2M": units.HUGE_2M,
        "1G": units.HUGE_1G,
    }

    def __init__(self, granule: str = "1G") -> None:
        if granule not in self.GRANULES:
            raise ValueError(f"granule must be one of {sorted(self.GRANULES)}")
        self.granule_name = granule
        self.granule_bytes = self.GRANULES[granule]
        self._mappings: Dict[int, int] = {}   # granule index -> host base
        self._valid: Dict[int, bool] = {}     # granules the guest may touch
        self.faults = 0
        self._next_host_base = 0

    def _granule_index(self, gpa: int) -> int:
        return gpa // self.granule_bytes

    def grant(self, gpa_start: int, nbytes: int) -> None:
        """Hypervisor marks a GPA range as valid for the guest.

        Backing host memory is still installed lazily via EPT faults, the
        way Dune populates EPT entries on first touch.
        """
        first = self._granule_index(gpa_start)
        last = self._granule_index(gpa_start + max(nbytes, 1) - 1)
        for index in range(first, last + 1):
            self._valid[index] = True

    def revoke(self, gpa_start: int, nbytes: int) -> int:
        """Hypervisor reclaims a GPA range; returns granules removed."""
        first = self._granule_index(gpa_start)
        last = self._granule_index(gpa_start + max(nbytes, 1) - 1)
        removed = 0
        for index in range(first, last + 1):
            self._valid.pop(index, None)
            if self._mappings.pop(index, None) is not None:
                removed += 1
        return removed

    def translate(self, gpa: int, clock: CycleClock) -> int:
        """Translate ``gpa`` to an HPA, taking an EPT fault on first touch.

        The fault path charges a vmexit plus hypervisor fault handling
        (paper Section 3.5: "similar to common page faults but has higher
        cost due to the required vmexit").
        """
        index = self._granule_index(gpa)
        host_base = self._mappings.get(index)
        if host_base is None:
            if not self._valid.get(index, False):
                raise SegmentationFault(
                    gpa, f"EPT violation: GPA 0x{gpa:x} not granted to guest"
                )
            self.faults += 1
            clock.charge("ept.fault", constants.EPT_FAULT_CYCLES)
            host_base = self._next_host_base
            self._next_host_base += self.granule_bytes
            self._mappings[index] = host_base
        return host_base + (gpa % self.granule_bytes)

    def granted_bytes(self) -> int:
        """Total bytes of GPA space currently granted."""
        return len(self._valid) * self.granule_bytes

    def backed_bytes(self) -> int:
        """Total bytes of GPA space with installed host backing."""
        return len(self._mappings) * self.granule_bytes
