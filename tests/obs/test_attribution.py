"""CycleAttribution: folding spans into per-name and per-stage totals."""

import pytest

from repro.obs import CycleAttribution, Tracer
from repro.sim.clock import CycleClock


@pytest.fixture
def tracer():
    t = Tracer()
    t.enable()
    return t


def _trace_fault(tracer, clock, io_cycles):
    with tracer.span("fault", clock):
        clock.charge("fault.vma_lookup", 100)
        with tracer.span("fault.io"):
            clock.charge("idle.io", io_cycles)
        clock.charge("fault.pte_install", 50)


class TestSelfCycles:
    def test_per_name_totals(self, tracer):
        clock = CycleClock()
        _trace_fault(tracer, clock, 1000)
        _trace_fault(tracer, clock, 3000)
        att = CycleAttribution.from_tracer(tracer)
        assert att.self_cycles("fault") == 300       # 2 x (100 + 50)
        assert att.self_cycles("fault.io") == 4000
        assert att.count("fault") == 2
        assert att.total_cycles() == 4300
        assert att.span_names() == ["fault", "fault.io"]

    def test_prefix_totals_are_dotted(self, tracer):
        clock = CycleClock()
        _trace_fault(tracer, clock, 1000)
        att = CycleAttribution.from_tracer(tracer)
        # "fault" matches both "fault" and "fault.io"; "fault.i" matches neither.
        assert att.self_prefix_total("fault") == 1150
        assert att.self_prefix_total("fault.io") == 1000
        assert att.self_prefix_total("fault.i") == 0

    def test_total_equals_charged_clock_advance(self, tracer):
        clock = CycleClock()
        _trace_fault(tracer, clock, 777)
        att = CycleAttribution.from_tracer(tracer)
        assert att.total_cycles() == pytest.approx(clock.breakdown.total())

    def test_since_mark_window(self, tracer):
        clock = CycleClock()
        _trace_fault(tracer, clock, 1000)
        mark = tracer.mark()
        _trace_fault(tracer, clock, 2000)
        att = CycleAttribution.from_tracer(tracer, since=mark)
        assert att.count("fault") == 1
        assert att.self_cycles("fault.io") == 2000


class TestCharges:
    def test_charges_of(self, tracer):
        clock = CycleClock()
        _trace_fault(tracer, clock, 1000)
        att = CycleAttribution.from_tracer(tracer)
        assert att.charges_of("fault") == {
            "fault.vma_lookup": 100,
            "fault.pte_install": 50,
        }
        assert att.charges_of("fault.io") == {"idle.io": 1000}
        assert att.charges_of("missing") == {}

    def test_charges_of_prefix_merges(self, tracer):
        clock = CycleClock()
        _trace_fault(tracer, clock, 1000)
        att = CycleAttribution.from_tracer(tracer)
        merged = att.charges_of_prefix("fault")
        assert merged == {
            "fault.vma_lookup": 100,
            "fault.pte_install": 50,
            "idle.io": 1000,
        }
