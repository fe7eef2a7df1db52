"""Guard: disabled tracing must stay under 5% of microbenchmark runtime.

The instrumented hot paths call ``TRACER.span(...)`` unconditionally; when
tracing is off each call is one branch plus a counter bump and a shared
no-op context manager.  This test bounds that cost on the Figure 8(a)
fault microbenchmark: (span calls taken during the run) x (measured
per-call cost of a disabled span) must be below 5% of the run's wall time.
"""

import time

from repro.obs import TRACER
from repro.sim.clock import CycleClock


def _disabled_span_cost(iterations: int = 200_000) -> float:
    """Wall seconds per disabled ``with TRACER.span(...): pass``."""
    clock = CycleClock()
    span = TRACER.span   # the hot paths hold the bound method equivalent
    start = time.perf_counter()
    for _ in range(iterations):
        with span("overhead-probe", clock):
            pass
    return (time.perf_counter() - start) / iterations


def test_disabled_tracing_overhead_under_5_percent():
    from repro.bench.experiments.fig8 import in_memory_pages, run_fault_benchmark

    assert not TRACER.enabled
    noops_before = TRACER.noop_requests
    start = time.perf_counter()
    for engine in ("linux", "aquila"):
        run_fault_benchmark(engine, *in_memory_pages(800), 800)
    run_seconds = time.perf_counter() - start
    span_calls = TRACER.noop_requests - noops_before

    assert span_calls > 0, "instrumented paths should request spans"
    per_call = _disabled_span_cost()
    overhead = span_calls * per_call
    assert overhead < 0.05 * run_seconds, (
        f"disabled tracing cost {overhead * 1e3:.2f} ms over "
        f"{span_calls} span calls vs {run_seconds * 1e3:.1f} ms run "
        f"({100 * overhead / run_seconds:.2f}%)"
    )
