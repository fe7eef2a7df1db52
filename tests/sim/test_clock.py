"""CycleClock and Breakdown accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import TRACER
from repro.sim.clock import Breakdown, CycleClock

#: Per-charge raw cycles the run draws from: integers, fractions and zero.
RAW_STEPS = st.sampled_from([0, 0.0, 1, 6, 100, 55, 0.5, 2.25, 1 / 3])

#: One run: distinct categories, each with a raw step and a count.
RUNS = st.lists(
    st.tuples(st.sampled_from("abcdefgh"), RAW_STEPS, st.integers(0, 40)),
    max_size=5,
    unique_by=lambda entry: entry[0],
)


class TestCycleClock:
    def test_charge_advances(self):
        clock = CycleClock()
        clock.charge("a", 100)
        clock.charge("b", 50)
        assert clock.now == 150
        assert clock.breakdown.get("a") == 100
        assert clock.breakdown.get("b") == 50

    def test_negative_charge_rejected(self):
        clock = CycleClock()
        with pytest.raises(ValueError):
            clock.charge("x", -1)

    def test_wait_until_future(self):
        clock = CycleClock()
        clock.charge("work", 100)
        waited = clock.wait_until(500, "idle.io")
        assert waited == 400
        assert clock.now == 500
        assert clock.breakdown.get("idle.io") == 400

    def test_wait_until_past_is_noop(self):
        clock = CycleClock()
        clock.charge("work", 100)
        assert clock.wait_until(50, "idle") == 0
        assert clock.now == 100

    def test_smt_cpi_factor_scales_work_not_waits(self):
        clock = CycleClock()
        clock.cpi_factor = 1.4
        clock.charge("work", 100)
        assert clock.now == pytest.approx(140)
        clock.wait_until(200, "idle")
        assert clock.now == 200   # waits are wall-clock, not CPI-scaled

    def test_seconds_property(self):
        clock = CycleClock()
        clock.charge("x", 2_400_000_000)
        assert clock.seconds == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=50))
    def test_now_equals_total_charged(self, charges):
        clock = CycleClock()
        for i, cycles in enumerate(charges):
            clock.charge(f"cat{i % 3}", cycles)
        assert clock.now == pytest.approx(sum(charges))
        assert clock.breakdown.total() == pytest.approx(sum(charges))


def _ledgers(span_open, cpi, before, act):
    """``(breakdown items, span charge items)`` after ``act(clock)``.

    The clock runs at ``cpi`` with ``before`` charged first, under an
    open span when ``span_open``; both ledgers keep their key order.
    """
    clock = CycleClock()
    clock.cpi_factor = cpi
    with TRACER.isolated(enable=span_open):
        if span_open:
            with TRACER.span("run", clock) as span:
                for category, raw in before:
                    clock.charge(category, raw)
                act(clock)
                charges = list(span.charges.items())
        else:
            for category, raw in before:
                clock.charge(category, raw)
            act(clock)
            charges = None
    return list(clock.breakdown.as_dict().items()), charges


def _stepped(run, absorb=None):
    """The per-access reference: ``clock.charge`` calls round by round.

    Round ``i`` charges every category whose count exceeds ``i``, in list
    order, as a hit loop charges each access; ``absorb = (after, category,
    raw)`` charges once more after ``after`` rounds.
    """
    def act(clock):
        for i in range(max((count for _, _, count in run), default=0) + 1):
            if absorb is not None and i == absorb[0]:
                clock.charge(absorb[1], absorb[2])
            for category, raw, count in run:
                if i < count:
                    clock.charge(category, raw)
    return act


class TestBookRun:
    """``CycleClock.book_run`` equals the stepped ``charge`` calls it replaces."""

    @given(
        run=RUNS,
        cpi=st.sampled_from([1.0, 1.4]),
        before=st.lists(st.tuples(st.sampled_from("aceij"), RAW_STEPS), max_size=4),
        span_open=st.booleans(),
    )
    def test_run_equals_stepped_charges(self, run, cpi, before, span_open):
        def book(clock):
            clock.book_run([(c, raw * clock.cpi_factor, n) for c, raw, n in run])

        assert _ledgers(span_open, cpi, before, book) == _ledgers(
            span_open, cpi, before, _stepped(run)
        )

    @given(
        run=RUNS,
        cpi=st.sampled_from([1.0, 1.4]),
        before=st.lists(st.tuples(st.sampled_from("aceij"), RAW_STEPS), max_size=4),
        span_open=st.booleans(),
        after=st.integers(0, 41),
        absorb=st.tuples(st.sampled_from("ijk"), RAW_STEPS),
    )
    def test_slots_then_direct_charge_equals_stepped(
        self, run, cpi, before, span_open, after, absorb
    ):
        """Slots for the charges so far, a direct charge, then the whole run."""
        run = [entry for entry in run if entry[0] not in "ijk"]

        def book(clock):
            so_far = [(c, raw * clock.cpi_factor, min(n, after)) for c, raw, n in run]
            clock.book_run(so_far, slots_only=True)
            clock.charge(*absorb)
            clock.book_run([(c, raw * clock.cpi_factor, n) for c, raw, n in run])

        last = max((n for _, _, n in run), default=0)
        assert _ledgers(span_open, cpi, before, book) == _ledgers(
            span_open, cpi, before, _stepped(run, (min(after, last), *absorb))
        )

    def test_none_category_and_zero_count_book_nothing(self):
        clock = CycleClock()
        clock.book_run([(None, 5.0, 3), ("a", 5.0, 0)])
        assert clock.breakdown.as_dict() == {} and clock.now == 0


class TestBreakdown:
    def test_prefix_total(self):
        breakdown = Breakdown()
        breakdown.add("fault.trap", 100)
        breakdown.add("fault.io.device", 200)
        breakdown.add("faulty", 999)   # not a dotted child of "fault"
        assert breakdown.prefix_total("fault") == 300
        assert breakdown.prefix_total("fault.io") == 200
        assert breakdown.prefix_total("faulty") == 999

    def test_merge(self):
        a, b = Breakdown(), Breakdown()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        a.merge(b)
        assert a.get("x") == 3
        assert a.get("y") == 3

    def test_scaled(self):
        breakdown = Breakdown()
        breakdown.add("x", 10)
        half = breakdown.scaled(0.5)
        assert half.get("x") == 5
        assert breakdown.get("x") == 10   # original untouched

    def test_zero_add_ignored(self):
        breakdown = Breakdown()
        breakdown.add("x", 0)
        assert breakdown.as_dict() == {}

    def test_items_sorted(self):
        breakdown = Breakdown()
        breakdown.add("b", 1)
        breakdown.add("a", 2)
        assert [k for k, _ in breakdown.items()] == ["a", "b"]
