"""Latency statistics: percentiles, means, throughput."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import LatencyRecorder, speedup, throughput_ops_per_sec


class TestLatencyRecorder:
    def test_empty(self):
        recorder = LatencyRecorder()
        assert recorder.count == 0
        assert recorder.mean() == 0
        assert recorder.p99() == 0
        assert recorder.max() == 0

    def test_known_percentiles(self):
        recorder = LatencyRecorder()
        recorder.extend(range(1, 101))   # 1..100
        assert recorder.p50() == 50
        assert recorder.p99() == 99
        assert recorder.percentile(100) == 100
        assert recorder.max() == 100
        assert recorder.mean() == pytest.approx(50.5)

    def test_percentile_bounds(self):
        recorder = LatencyRecorder()
        recorder.record(1)
        with pytest.raises(ValueError):
            recorder.percentile(0)
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_last_returns_most_recent_in_order(self):
        recorder = LatencyRecorder()
        recorder.extend([5.0, 6.0, 7.0, 8.0])
        assert recorder.last(2) == [7.0, 8.0]
        assert recorder.last(4) == [5.0, 6.0, 7.0, 8.0]
        assert recorder.last(9) == [5.0, 6.0, 7.0, 8.0]

    def test_last_zero_is_empty(self):
        # samples[-0:] would be the whole list, not the last zero samples.
        recorder = LatencyRecorder()
        recorder.extend([1.0, 2.0])
        assert recorder.last(0) == []
        assert LatencyRecorder().last(0) == []

    def test_last_is_a_copy(self):
        recorder = LatencyRecorder()
        recorder.extend([1.0, 2.0])
        recorder.last(1).append(99.0)
        assert recorder.samples() == [1.0, 2.0]

    def test_merge(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.extend([1, 2])
        b.extend([3, 4])
        a.merge(b)
        assert a.count == 4
        assert a.max() == 4

    def test_tail_mean_skips_warmup(self):
        recorder = LatencyRecorder()
        recorder.extend([1000] * 50 + [10] * 50)   # expensive warmup, cheap steady
        assert recorder.tail_mean(0.5) == pytest.approx(10)
        assert recorder.mean() == pytest.approx(505)

    def test_tail_mean_composes_with_percentiles(self):
        recorder = LatencyRecorder()
        recorder.extend([3, 1, 2])
        recorder.p50()   # sorts a separate view; recording order survives
        assert recorder.tail_mean(0.5) == pytest.approx(1.5)   # last two: [1, 2]
        # And the other order too: percentiles after tail_mean still work.
        assert recorder.p50() == 2
        assert recorder.samples() == [3, 1, 2]

    def test_histogram_buckets(self):
        recorder = LatencyRecorder()
        recorder.extend([1, 2, 2, 5, 100])
        # bucket semantics: first bound >= value (inclusive upper bounds)
        assert recorder.histogram([2, 10]) == [3, 1, 1]
        with pytest.raises(ValueError):
            recorder.histogram([])
        with pytest.raises(ValueError):
            recorder.histogram([10, 2])

    def test_empty_percentiles_are_zero(self):
        recorder = LatencyRecorder()
        assert recorder.p50() == 0.0
        assert recorder.p99() == 0.0
        assert recorder.p999() == 0.0
        assert recorder.percentile(0.1) == 0.0

    def test_single_sample_is_every_percentile(self):
        recorder = LatencyRecorder()
        recorder.record(7.0)
        for pct in (0.1, 50, 99, 99.9, 100):
            assert recorder.percentile(pct) == 7.0

    def test_p999_boundary_ties(self):
        # Nearest-rank at an exact boundary: 99.9% of 1000 samples is
        # rank 999 — the last of the ties, not the outlier...
        recorder = LatencyRecorder()
        recorder.extend([5] * 999 + [9])
        assert recorder.p999() == 5
        assert recorder.max() == 9
        # ...and one more sample pushes the boundary past the ties.
        recorder.record(9)
        assert recorder.p999() == 9

    def test_p99_boundary_rank(self):
        recorder = LatencyRecorder()
        recorder.extend(range(1, 101))
        # 99% of 100 samples is exactly rank 99, even though 0.99 * 100
        # lands just under 99.0 in floats.
        assert recorder.p99() == 99

    def test_histogram_agrees_with_percentiles(self):
        recorder = LatencyRecorder()
        recorder.extend([10] * 900 + [100] * 99 + [1000])
        # A bucket bound at the p99 value must hold at least 99% of the
        # samples at or below it, and the percentile itself must land in
        # that bucket's range.
        p99 = recorder.p99()
        at_or_below, above = recorder.histogram([p99])
        assert at_or_below >= 0.99 * recorder.count
        assert at_or_below + above == recorder.count
        assert recorder.histogram([9, 99, 999]) == [0, 900, 99, 1]

    @given(
        st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1),
        st.sampled_from([50.0, 90.0, 99.0, 99.9]),
    )
    def test_histogram_percentile_agreement_property(self, samples, pct):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        value = recorder.percentile(pct)
        at_or_below = recorder.histogram([value])[0]
        # Nearest-rank: the bucket closed at percentile(pct) holds at
        # least ceil(pct% * n) samples, and removing the percentile's own
        # ties drops the count below that rank.
        import math

        rank = max(1, math.ceil(round(pct / 100.0 * recorder.count, 9)))
        assert at_or_below >= rank
        strictly_below = at_or_below - sum(1 for s in samples if s == value)
        assert strictly_below < rank

    @given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1))
    def test_percentiles_monotone(self, samples):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        assert recorder.p50() <= recorder.p99() <= recorder.p999() <= recorder.max()
        # Mean stays within the sample range modulo float summation error.
        slack = 1e-6 * max(1.0, max(samples))
        assert min(samples) - slack <= recorder.mean() <= max(samples) + slack

    @given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1))
    def test_percentile_is_a_sample(self, samples):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        for pct in (1, 50, 99, 99.9, 100):
            assert recorder.percentile(pct) in samples


class TestThroughput:
    def test_simple(self):
        # 2.4e9 cycles = 1 s; 100 ops in 1 s.
        assert throughput_ops_per_sec(100, 2_400_000_000) == pytest.approx(100.0)

    def test_zero_elapsed(self):
        assert throughput_ops_per_sec(100, 0) == 0.0


class TestSpeedup:
    def test_basic(self):
        assert speedup(10.0, 5.0) == 2.0

    def test_zero_improved(self):
        assert speedup(10.0, 0.0) == float("inf")
