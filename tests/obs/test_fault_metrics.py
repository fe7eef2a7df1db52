"""Fault observability: counters, spans and the cycle breakdown reconcile.

A degraded run must stay fully accounted: every retry the policy takes
shows up once in the ``fault.retries`` counter AND once as a
``fault.retry`` span whose self cycles equal the backoff cycles on the
clock; injected-fault counts surface identically through the plan
summary and the bound metrics probes; and the trace's self cycles still
explain the clock's total within 1%.
"""

import pytest

from repro.bench import setups
from repro.common import units
from repro.common.errors import DeviceError
from repro.fault.plan import FaultPlan, FaultSpec, clear_plan, plan_installed
from repro.obs import METRICS, TRACER, disable_tracing, enable_tracing
from repro.sim import rand
from repro.sim.executor import SimThread

PAGE = units.PAGE_SIZE

#: Rates high enough that a 300-op run deterministically retries.
SPEC = FaultSpec(error_rate=0.10, latency_rate=0.05)
SEED = 7


@pytest.fixture(autouse=True)
def _clean_obs():
    METRICS.enable()
    METRICS.reset()
    enable_tracing()
    yield
    clear_plan()
    disable_tracing()
    METRICS.disable()
    METRICS.reset()


def _faulty_run(seed=SEED):
    """A write-heavy mmap workload over NVMe under an injected plan."""
    plan = FaultPlan(seed, SPEC)
    with plan_installed(plan):
        stack = setups.make_linux_stack(
            "nvme", cache_pages=32, capacity_bytes=16 * units.MIB
        )
        file = stack.allocator.create("workload", 64 * PAGE)
        thread = SimThread(core=0)
        mapping = stack.engine.mmap(thread, file)
        rng = rand.stream(seed, "fault-metrics.workload")
        for index in range(300):
            page = rng.randrange(64)
            try:
                if rng.random() < 0.6:
                    mapping.store(thread, page * PAGE, bytes([index % 250 + 1]) * PAGE)
                else:
                    mapping.load(thread, page * PAGE, PAGE)
                if index % 40 == 39:
                    mapping.msync(thread)
            except DeviceError:
                pass   # a give-up degrades the run; accounting must still balance
    return plan, stack, thread


class TestRetryAccounting:
    def test_counter_matches_span_count(self):
        _faulty_run()
        retry_spans = [s for s in TRACER.finished_spans() if s.name == "fault.retry"]
        assert retry_spans, "workload injected no retries — rates too low"
        assert METRICS.counter("fault.retries").value == len(retry_spans)

    def test_backoff_charges_equal_span_cycles(self):
        _, _, thread = _faulty_run()
        retry_cycles = sum(
            s.self_cycles for s in TRACER.finished_spans() if s.name == "fault.retry"
        )
        breakdown_backoff = sum(
            cycles
            for category, cycles in thread.clock.breakdown.items()
            if category.endswith(".retry_backoff")
        )
        assert breakdown_backoff > 0
        assert retry_cycles == pytest.approx(breakdown_backoff)

    def test_injector_counters_reconcile_with_metrics_probes(self):
        plan, _, _ = _faulty_run()
        summary = plan.summary()["nvme0"]
        snapshot = METRICS.snapshot()
        assert snapshot["device.nvme0.faults.errors"] == summary["errors"]
        assert snapshot["device.nvme0.faults.latency"] == summary["latency"]
        assert snapshot["device.nvme0.faults.torn"] == summary["torn"]
        assert summary["errors"] > 0


class TestAttributionReconciles:
    def test_trace_explains_total_within_one_percent(self):
        """Even degraded, the trace accounts for the whole clock."""
        _, _, thread = _faulty_run()
        traced = sum(s.self_cycles for s in TRACER.finished_spans())
        assert TRACER.dropped == 0
        assert traced == pytest.approx(
            thread.clock.breakdown.total(), rel=0.01
        )

    def test_fault_spans_present_in_degraded_run(self):
        _faulty_run()
        names = {s.name for s in TRACER.finished_spans()}
        assert "fault.retry" in names
        assert "fault" in names         # the fault path itself stays traced
        assert "writeback.bg" in names  # degradation rides the normal paths


class TestDeterministicAccounting:
    def test_same_seed_identical_counters_and_cycles(self):
        results = []
        for _ in range(2):
            METRICS.reset()
            enable_tracing()   # resets the trace buffer
            plan, _, thread = _faulty_run()
            retry_spans = [
                s for s in TRACER.finished_spans() if s.name == "fault.retry"
            ]
            results.append(
                (
                    METRICS.counter("fault.retries").value,
                    len(retry_spans),
                    plan.summary(),
                    thread.clock.now,
                    thread.clock.breakdown.total(),
                )
            )
        assert results[0] == results[1]
