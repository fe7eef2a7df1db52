"""Retry-with-backoff over transient device faults.

The policy every I/O path shares: a command that fails with a
:class:`~repro.common.errors.TransientDeviceError` is retried after an
exponentially growing backoff (charged to the caller's clock, so degraded
runs stay cycle-accounted), up to a bounded number of attempts.  A command
still failing after the last attempt escalates to a permanent
:class:`~repro.common.errors.DeviceError` — graceful degradation, not
silent loss: latency rises, counters tick, but no acknowledged data is
dropped and no failure is hidden.

Backoff is deterministic (no jitter): determinism of the whole fault
schedule is the point of :mod:`repro.fault`.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.common.errors import DeviceError, TransientDeviceError
from repro.obs import METRICS, TRACER

T = TypeVar("T")


class RetryPolicy:
    """How many times to retry a transient fault, and at what cost."""

    def __init__(
        self,
        max_attempts: int = 4,
        base_backoff_cycles: float = 2_000.0,
        multiplier: float = 4.0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if base_backoff_cycles < 0 or multiplier < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        self.max_attempts = max_attempts
        self.base_backoff_cycles = base_backoff_cycles
        self.multiplier = multiplier

    def backoff_cycles(self, retry_index: int) -> float:
        """Backoff before retry number ``retry_index`` (0-based)."""
        return self.base_backoff_cycles * (self.multiplier ** retry_index)


#: The stack-wide default: 1 initial attempt + 3 retries, 2K/8K/32K-cycle
#: backoffs (a few microseconds — the scale of an NVMe abort/requeue).
DEFAULT_RETRY_POLICY = RetryPolicy()

def with_retries(
    clock,
    attempt: Callable[[], T],
    category: str = "io",
    policy: Optional[RetryPolicy] = None,
) -> T:
    """Run ``attempt`` (one device command), retrying transient faults.

    Each retry opens a ``fault.retry`` span and charges
    ``<category>.retry_backoff`` cycles to ``clock`` before re-issuing.
    Raises :class:`DeviceError` once the policy is exhausted.
    """
    try:
        return attempt()
    except TransientDeviceError as exc:
        last_error = exc
    policy = policy if policy is not None else DEFAULT_RETRY_POLICY
    for attempt_index in range(1, policy.max_attempts):
        # Looked up per retry (not cached at import) so the counters
        # survive METRICS.reset(); retries are rare, the cost is noise.
        METRICS.counter(
            "fault.retries", help="I/O commands retried after a transient fault"
        ).inc()
        with TRACER.span("fault.retry", clock):
            clock.charge(
                category + ".retry_backoff",
                policy.backoff_cycles(attempt_index - 1),
            )
        try:
            return attempt()
        except TransientDeviceError as exc:
            last_error = exc
    METRICS.counter(
        "fault.giveups", help="I/O commands failed after exhausting retries"
    ).inc()
    raise DeviceError(
        f"command failed after {policy.max_attempts} attempts: {last_error}"
    ) from last_error
