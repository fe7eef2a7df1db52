"""Tracer: span nesting, self cycles, ring bound, Chrome export."""

import json

import pytest

from repro.common import units
from repro.obs import DEFAULT_CAPACITY, TRACER, Tracer, enable_tracing
from repro.sim.clock import CycleClock


@pytest.fixture
def tracer():
    t = Tracer(capacity=64)
    t.enable()
    return t


@pytest.fixture(autouse=True)
def _global_tracer_off():
    """Tests here must not leak state into the process-wide TRACER."""
    yield
    TRACER.disable()
    TRACER.reset(capacity=DEFAULT_CAPACITY)


class TestSpanNesting:
    def test_self_cycles_exclude_children(self, tracer):
        clock = CycleClock()
        with tracer.span("outer", clock):
            clock.charge("a", 100)
            with tracer.span("inner"):   # clock inherited from enclosing span
                clock.charge("b", 50)
            clock.charge("a", 25)
        outer, inner = None, None
        for span in tracer.finished_spans():
            if span.name == "outer":
                outer = span
            elif span.name == "inner":
                inner = span
        assert inner.duration == 50
        assert inner.self_cycles == 50
        assert outer.duration == 175
        assert outer.self_cycles == 125
        assert outer.depth == 0 and inner.depth == 1

    def test_charges_route_to_innermost_span(self, tracer):
        clock = CycleClock()
        with tracer.span("outer", clock):
            clock.charge("x", 10)
            with tracer.span("inner", clock):
                clock.charge("x", 7)
                clock.charge("y", 3)
        rows = [(s.name, s.depth, s.begin, s.end) for s in tracer.finished_spans()]
        assert rows == [("inner", 1, 10, 20), ("outer", 0, 0, 20)]
        assert clock.breakdown.as_dict() == {"x": 17, "y": 3}

    def test_wait_until_charges_span(self, tracer):
        clock = CycleClock()
        with tracer.span("s", clock):
            clock.wait_until(clock.now + 40, "idle.io")
        (span,) = tracer.finished_spans()
        assert (span.name, span.depth, span.begin, span.end) == ("s", 0, 0, 40)
        assert clock.breakdown.as_dict() == {"idle.io": 40}

    def test_cpi_scaling_reaches_span(self, tracer):
        clock = CycleClock()
        clock.cpi_factor = 2.0
        with tracer.span("s", clock):
            clock.charge("work", 10)
        (span,) = tracer.finished_spans()
        assert (span.name, span.depth, span.begin, span.end) == ("s", 0, 0, 20)
        assert clock.breakdown.as_dict() == {"work": 20}

    def test_no_clock_and_no_enclosing_span_raises(self, tracer):
        with pytest.raises(ValueError):
            tracer.span("orphan")

    def test_spans_on_two_clocks_get_two_tracks(self, tracer):
        a, b = CycleClock(), CycleClock()
        a.owner_name = "alpha"
        with tracer.span("sa", a):
            a.charge("w", 1)
        with tracer.span("sb", b):
            b.charge("w", 1)
        sa, sb = tracer.finished_spans()
        assert sa.track != sb.track
        names = tracer.track_names()
        assert names[sa.track] == "alpha"
        assert names[sb.track].startswith("clock-")


class TestRingBuffer:
    def test_oldest_spans_dropped(self):
        tracer = Tracer(capacity=4)
        tracer.enable()
        clock = CycleClock()
        for i in range(10):
            with tracer.span(f"s{i}", clock):
                clock.charge("w", 1)
        assert tracer.dropped == 6
        assert tracer.total_finished == 10
        assert [s.name for s in tracer.finished_spans()] == ["s6", "s7", "s8", "s9"]

    def test_reset_clears_and_bumps_epoch(self, tracer):
        clock = CycleClock()
        with tracer.span("s", clock):
            clock.charge("w", 1)
        epoch = tracer.epoch
        tracer.reset(capacity=8)
        assert tracer.epoch == epoch + 1
        assert tracer.capacity == 8
        assert tracer.finished_spans() == []
        assert tracer.total_finished == 0
        # The clock's cached track id is stale now; a new span re-registers.
        with tracer.span("s2", clock):
            clock.charge("w", 1)
        assert tracer.track_names() == ["clock-0"]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer().reset(capacity=-1)


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        before = tracer.noop_requests
        first = tracer.span("a", CycleClock())
        second = tracer.span("b")   # no clock needed while disabled
        assert first is second
        assert tracer.noop_requests == before + 2
        with first:
            pass
        assert tracer.finished_spans() == []

    def test_charges_not_recorded_while_disabled(self):
        tracer = Tracer()
        clock = CycleClock()
        with tracer.span("s", clock):
            clock.charge("w", 5)
        assert tracer.total_finished == 0
        assert clock.breakdown.total() == 5   # the clock itself still charges


class TestChromeExport:
    def test_schema_round_trip(self, tracer, tmp_path):
        clock = CycleClock()
        clock.owner_name = "worker-0"
        with tracer.span("fault", clock):
            clock.charge("fault.vma_lookup", 120)
            with tracer.span("fault.io"):
                clock.charge("idle.io", 2400)
        path = tmp_path / "trace.json"
        events = tracer.write_chrome_trace(str(path))
        trace = json.loads(path.read_text())
        # 1 process_name + 1 thread_name + 2 spans
        assert len(trace["traceEvents"]) == events == 4
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert meta[0]["name"] == "process_name"
        assert meta[0]["args"]["name"] == "repro-sim"
        assert meta[1]["name"] == "thread_name"
        assert meta[1]["args"]["name"] == "worker-0"
        by_name = {e["name"]: e for e in complete}
        fault, io = by_name["fault"], by_name["fault.io"]
        # ts/dur are simulated microseconds at the simulated frequency.
        assert io["dur"] == pytest.approx(units.cycles_to_us(2400), abs=1e-6)
        assert io["ts"] == pytest.approx(units.cycles_to_us(120), abs=1e-6)
        assert fault["args"]["cycles"] == 2520
        assert fault["args"] == {"cycles": 2520, "self_cycles": 120}
        assert io["args"] == {"cycles": 2400, "self_cycles": 2400}
        assert trace["otherData"]["dropped_spans"] == 0

    def test_streamed_file_matches_materialized_trace(self, tracer, tmp_path):
        clock = CycleClock()
        for i in range(20):
            with tracer.span(f"s{i}", clock):
                clock.charge("w", 10 + i)
        path = tmp_path / "trace.json"
        count = tracer.write_chrome_trace(str(path))
        streamed = json.loads(path.read_text())
        assert streamed == tracer.to_chrome_trace()
        # process_name + thread_name + 20 spans
        assert count == len(streamed["traceEvents"]) == 22

    def test_empty_tracer_still_writes_valid_trace(self, tracer, tmp_path):
        path = tmp_path / "empty.json"
        count = tracer.write_chrome_trace(str(path))
        trace = json.loads(path.read_text())
        assert count == 1   # just the process_name metadata event
        assert trace["traceEvents"][0]["name"] == "process_name"
        assert trace["otherData"]["total_spans"] == 0

    def test_determinism_identical_runs_identical_traces(self):
        """Two identical traced runs serialize to byte-identical JSON."""

        def traced_run() -> str:
            from repro.bench.setups import make_aquila_stack
            from repro.mmio.vma import MADV_RANDOM
            from repro.sim.executor import SimThread

            tracer = enable_tracing(capacity=1 << 12)
            stack = make_aquila_stack("pmem", cache_pages=128)
            file = stack.allocator.create("det-data", 64 * units.PAGE_SIZE)
            thread = SimThread(core=0, name="det-thread")
            mapping = stack.engine.mmap(thread, file)
            mapping.madvise(thread, MADV_RANDOM)
            for page in range(48):
                with tracer.span("op.access", thread.clock):
                    mapping.load(thread, page * units.PAGE_SIZE, 8)
            blob = json.dumps(tracer.to_chrome_trace(), sort_keys=True)
            tracer.disable()
            tracer.reset()
            return blob

        assert traced_run() == traced_run()


class TestIsolated:
    def test_isolated_scope_restores_outer_state(self, tracer):
        clock = CycleClock()
        with tracer.span("outer-span", clock):
            clock.charge("w", 5)
        outer_epoch = tracer.epoch
        with tracer.isolated(enable=True):
            inner_clock = CycleClock()
            with tracer.span("inner-span", inner_clock):
                inner_clock.charge("w", 7)
            assert [s.name for s in tracer.finished_spans()] == ["inner-span"]
            assert tracer.total_finished == 1
        assert [s.name for s in tracer.finished_spans()] == ["outer-span"]
        assert tracer.total_finished == 1
        assert tracer.epoch == outer_epoch + 2   # bump on entry and exit

    def test_isolated_restores_disabled_flag(self):
        t = Tracer(capacity=8)
        assert not t.enabled
        with t.isolated(enable=True):
            assert t.enabled
            with t.span("s", CycleClock()):
                pass
        assert not t.enabled
        assert t.finished_spans() == []

    def test_stale_track_ids_do_not_leak_across_scopes(self, tracer):
        clock = CycleClock()
        clock.owner_name = "shared-clock"
        with tracer.isolated(enable=True):
            with tracer.span("a", clock):
                pass
        with tracer.isolated(enable=True):
            with tracer.span("b", clock):
                pass
            # The epoch bump forced re-registration instead of reusing the
            # first scope's track id.
            assert tracer.track_names() == ["shared-clock"]
