"""Deterministic crash points and durable-state snapshots.

Every writeback / msync / eviction / WAL boundary in the stack calls
``CRASH.point(label)``.  Disarmed (the default), that is a single branch.
Armed, the controller counts boundaries and — at the chosen ordinal —
snapshots the durable state of the registered devices and raises
:class:`~repro.common.errors.SimulatedCrash`.  A test then rebuilds the
stack on devices restored from the snapshot and checks the recovery
invariants:

* **no acknowledged-durable data lost** — anything a completed
  msync/fsync/WAL-append acknowledged is readable after recovery;
* **no torn page observed** — every recovered page equals some complete
  version the application wrote, never an interleaving.

Determinism: boundaries are counted in simulated execution order, which
the single-OS-thread executor makes reproducible, so "crash at point #7"
names the same instant on every run with the same seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.errors import SimulatedCrash

#: A durable snapshot: device name -> {page_index: bytes}.
DeviceSnapshot = Dict[str, Dict[int, bytes]]


class CrashController:
    """Counts crash-point boundaries; crashes at an armed ordinal."""

    MODE_OFF = "off"
    MODE_COUNT = "count"
    MODE_CRASH = "crash"

    def __init__(self) -> None:
        self._mode = self.MODE_OFF
        self._devices: Sequence = ()
        self.target_index = 0
        self.points_seen = 0
        self.labels: List[str] = []
        self.snapshot: Optional[DeviceSnapshot] = None
        self.fired_label: Optional[str] = None

    # -- arming -----------------------------------------------------------------

    def reset(self) -> None:
        """Disarm and forget all state (the default, zero-cost mode)."""
        self._mode = self.MODE_OFF
        self._devices = ()
        self.target_index = 0
        self.points_seen = 0
        self.labels = []
        self.snapshot = None
        self.fired_label = None

    def count_mode(self) -> None:
        """Enumerate boundaries without crashing (dry run for a matrix)."""
        self.reset()
        self._mode = self.MODE_COUNT

    def arm(self, target_index: int, devices: Sequence) -> None:
        """Crash at boundary ``target_index`` (1-based), snapshotting
        the durable stores of ``devices`` at that instant."""
        if target_index < 1:
            raise ValueError("crash point indices are 1-based")
        self.reset()
        self._mode = self.MODE_CRASH
        self.target_index = target_index
        self._devices = tuple(devices)

    @property
    def active(self) -> bool:
        """Whether points are currently being counted or crashed on."""
        return self._mode != self.MODE_OFF

    # -- the boundary hook --------------------------------------------------------

    def point(self, label: str) -> None:
        """One crash-point boundary.  A single branch while disarmed."""
        if self._mode == self.MODE_OFF:
            return
        self.points_seen += 1
        self.labels.append(label)
        if self._mode == self.MODE_CRASH and self.points_seen == self.target_index:
            self.snapshot = snapshot_devices(self._devices)
            self.fired_label = label
            self._mode = self.MODE_OFF   # one shot; unwind must not re-fire
            raise SimulatedCrash(label, self.points_seen)


def snapshot_devices(devices: Sequence) -> DeviceSnapshot:
    """Copy the durable page contents of each device's backing store."""
    return {device.name: device.store.snapshot() for device in devices}


def restore_devices(devices: Sequence, snapshot: DeviceSnapshot) -> None:
    """Overwrite each device's backing store with a snapshot's pages.

    The devices are typically *fresh* instances (post-crash reboot):
    contents are restored, timing/queue state starts cold — exactly what
    a power cycle does.
    """
    for device in devices:
        pages = snapshot.get(device.name)
        if pages is None:
            raise KeyError(f"snapshot has no state for device {device.name!r}")
        device.store.restore(pages)


#: The process-wide controller every boundary hook reports to.
CRASH = CrashController()
