"""repro.obs — zero-dependency tracing and metrics for the simulator.

Two pieces, threaded through the whole fault path:

* :data:`~repro.obs.trace.TRACER` — nested cycle-scoped spans on the
  simulated clock, a bounded ring buffer, Chrome ``trace_event`` export
  (open any run in Perfetto): an opt-in timeline;
* :data:`~repro.obs.metrics.METRICS` — process-wide named counters and
  histograms plus pull-probes over the counters components already
  keep.

Where the simulated cycles went is not a span question: every figure and
every cell's telemetry folds the clocks' always-on cycle breakdowns
through :func:`~repro.obs.events.fold_stages`.

Both the tracer and the registry are **disabled by default** and cost one
branch per instrumented call while disabled.  Enable them before building
the stack you want observed (components bind their metrics at
construction)::

    from repro import obs
    obs.enable_tracing()
    obs.enable_metrics()
    ... build stack, run ...
    obs.write_trace("out.json")
    print(obs.METRICS.snapshot())
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import (
    DEFAULT_STAGE_RULES,
    TELEMETRY_SCHEMA,
    collect_cell_telemetry,
    deterministic_view,
    stage_shares,
    telemetry_bytes,
    telemetry_digest,
)
from repro.obs.metrics import (
    COUNTER_WRAP,
    DEFAULT_CYCLE_BUCKETS,
    METRICS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import DEFAULT_CAPACITY, TRACER, Span, Tracer

__all__ = [
    "COUNTER_WRAP",
    "DEFAULT_CAPACITY",
    "DEFAULT_CYCLE_BUCKETS",
    "DEFAULT_STAGE_RULES",
    "METRICS",
    "TELEMETRY_SCHEMA",
    "TRACER",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "collect_cell_telemetry",
    "deterministic_view",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "enable_metrics",
    "disable_metrics",
    "stage_shares",
    "telemetry_bytes",
    "telemetry_digest",
    "write_trace",
]


def enable_tracing(capacity: Optional[int] = None, reset: bool = True) -> Tracer:
    """Enable the global tracer (optionally resizing/clearing its ring)."""
    if reset:
        TRACER.reset(capacity=capacity)
    TRACER.enable()
    return TRACER


def disable_tracing() -> None:
    """Stop recording spans; collected spans are kept for export."""
    TRACER.disable()


def tracing_enabled() -> bool:
    """Whether the global tracer is currently recording."""
    return TRACER.enabled


def enable_metrics(reset: bool = True) -> MetricsRegistry:
    """Enable the global metrics registry; ``reset`` also drops its metrics and lock totals."""
    METRICS.enable()
    if reset:
        METRICS.reset()
    return METRICS


def disable_metrics() -> None:
    """Turn the metrics registry off (mutators/bindings become no-ops)."""
    METRICS.disable()


def write_trace(path: str) -> int:
    """Export the global tracer's spans as Chrome trace JSON to ``path``."""
    return TRACER.write_chrome_trace(path)
