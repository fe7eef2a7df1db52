"""Shared constants, units, and error types."""

from repro.common import constants, units
from repro.common.errors import (
    ConfigError,
    DeviceError,
    KeyNotFoundError,
    OutOfMemoryError,
    OutOfSpaceError,
    ProtectionFault,
    ReproError,
    SegmentationFault,
    SimulationError,
)

__all__ = [
    "constants",
    "units",
    "ConfigError",
    "DeviceError",
    "KeyNotFoundError",
    "OutOfMemoryError",
    "OutOfSpaceError",
    "ProtectionFault",
    "ReproError",
    "SegmentationFault",
    "SimulationError",
]
