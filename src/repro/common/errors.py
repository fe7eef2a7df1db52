"""Exception hierarchy for the Aquila reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class SegmentationFault(ReproError):
    """An access hit a virtual address with no valid mapping (SIGSEGV)."""

    def __init__(self, address: int, message: str = "") -> None:
        detail = message or f"invalid access to 0x{address:x}"
        super().__init__(detail)
        self.address = address


class ProtectionFault(ReproError):
    """An access violated the protection flags of a valid mapping."""

    def __init__(self, address: int, message: str = "") -> None:
        detail = message or f"protection violation at 0x{address:x}"
        super().__init__(detail)
        self.address = address


class DeviceError(ReproError):
    """A storage device rejected or failed an I/O request."""


class TransientDeviceError(DeviceError):
    """An injected, retryable device failure (media hiccup, aborted command).

    Raised by the fault-injection layer (:mod:`repro.fault`); the I/O
    paths retry these with backoff before escalating to a permanent
    :class:`DeviceError`.
    """


class TornWriteError(TransientDeviceError):
    """A write command failed after only a prefix of its payload landed.

    Models a power cut or aborted DMA mid-transfer: ``written_bytes`` of
    the payload are durable on the media, the rest never arrived.
    """

    def __init__(self, message: str = "", written_bytes: int = 0) -> None:
        super().__init__(message or f"torn write: only {written_bytes} bytes landed")
        self.written_bytes = written_bytes


class OutOfSpaceError(DeviceError):
    """A write extended past the device capacity."""


class OutOfMemoryError(ReproError):
    """The simulated machine ran out of physical frames."""


class KeyNotFoundError(ReproError):
    """A key-value store lookup did not find the key."""


class SimulationError(ReproError):
    """Internal inconsistency detected by the discrete-event executor."""


class SimulatedCrash(ReproError):
    """A deterministic crash fired at an armed :class:`repro.fault` point.

    Carries the label and ordinal of the boundary that crashed; durable
    device state at the instant of the crash is held by the controller
    that raised it.
    """

    def __init__(self, label: str, point_index: int) -> None:
        super().__init__(f"simulated crash at point #{point_index} ({label})")
        self.label = label
        self.point_index = point_index
