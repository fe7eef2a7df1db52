"""Latency statistics: percentiles, means, throughput."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import stats
from repro.sim.stats import LatencyRecorder, throughput_ops_per_sec


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
        assert list(recorder.samples()) == [1.0, 2.0]
        # Once packed into a chunk, too.
        recorder.extend(np.array([3.0]))
        recorder.last(3).append(99.0)
        assert list(recorder.samples()) == [1.0, 2.0, 3.0]
        # And the stream the recorder hands out cannot write its samples.
        with pytest.raises(ValueError):
            recorder.samples().array[0] = 99.0

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
        assert list(recorder.samples()) == [3, 1, 2]

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


class _ListRecorder:
    """The list-backed recorder the array-backed one replaced: the model.

    Python floats in one list, ``sum`` for totals and ``sorted`` for
    ranks; every answer of :class:`LatencyRecorder` must equal this
    one's bit for bit.
    """

    def __init__(self):
        self.values = []

    def mean(self):
        return sum(self.values) / len(self.values) if self.values else 0.0

    def tail_mean(self, fraction):
        if not self.values:
            return 0.0
        tail = self.values[int(len(self.values) * (1.0 - fraction)) :]
        return sum(tail) / len(tail)

    def percentile(self, pct, ordered=None):
        if not self.values:
            return 0.0
        rank = max(1, math.ceil(round(pct / 100.0 * len(self.values), 9)))
        return (ordered or sorted(self.values))[rank - 1]

    def max(self):
        return max(self.values) if self.values else 0.0


def _hexes(values):
    return [float(v).hex() for v in values]


#: CPI-1.4 hit and walk latencies, signed zeros, ties and large clocks.
_STREAM_VALUES = (
    6 * 1.4,
    6 * 1.4 + 100 * 1.4,
    6.0,
    106.0,
    0.0,
    -0.0,
    2.0**53 + 2.0,
    1e15 / 3,
    0.1,
)


def _random_stream(rng, n):
    return [
        rng.choice(_STREAM_VALUES) if rng.random() < 0.8 else rng.uniform(0, 1e6)
        for _ in range(n)
    ]


def _assert_matches(recorder, model):
    values = model.values
    assert recorder.count == len(values)
    assert _hexes(recorder.samples()) == _hexes(values)
    assert recorder.mean().hex() == float(model.mean()).hex()
    for fraction in (1.0, 0.5, 0.3, 1e-6):
        assert recorder.tail_mean(fraction).hex() == float(model.tail_mean(fraction)).hex()
    ordered = sorted(values)
    for pct in (0.1, 1, 50, 99, 99.9, 100):
        assert recorder.percentile(pct).hex() == float(model.percentile(pct, ordered)).hex()
    assert recorder.max().hex() == float(model.max()).hex()
    for n in (0, 1, 2, 5, 17, len(values) // 2, len(values), len(values) + 3):
        expected = values[-n:] if n > 0 else []
        got = recorder.last(n)
        assert all(type(v) is float for v in got)
        assert _hexes(got) == _hexes(expected)


class TestAgainstListModel:
    """The array-backed recorder against the list recorder it replaced."""

    @pytest.mark.parametrize("block, steps", [(3, 60), (64, 60), (stats.BLOCK, 8)])
    def test_mixed_record_extend_merge(self, monkeypatch, block, steps):
        # Chunks come from ndarray extends and merges; a small BLOCK puts
        # the sums' and iteration's block boundaries everywhere, the real
        # one is crossed by the longer streams.
        monkeypatch.setattr(stats, "BLOCK", block)
        rng = random.Random(block)
        recorder, model = LatencyRecorder(), _ListRecorder()
        _assert_matches(recorder, model)
        for _ in range(steps):
            action = rng.randrange(4)
            values = _random_stream(rng, rng.choice((0, 1, 5, 100, block + 1, 3 * block)))
            if action == 0:
                for value in values:
                    recorder.record(value)
            elif action == 1:
                recorder.extend(values)
            elif action == 2:
                recorder.extend(np.array(values, dtype=np.float64))
            else:
                other = LatencyRecorder()
                other.extend(values[: len(values) // 2])
                other.extend(np.array(values[len(values) // 2 :], dtype=np.float64))
                recorder.merge(other)
            model.values += values
            if rng.random() < 0.3:
                _assert_matches(recorder, model)
        _assert_matches(recorder, model)

    def test_merge_leaves_both_recorders_whole(self, monkeypatch):
        monkeypatch.setattr(stats, "BLOCK", 4)
        a, b = LatencyRecorder(), LatencyRecorder()
        a.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        b.extend(np.array([6.0, 7.0]))
        b.record(8.0)
        a.merge(b)
        b.record(9.0)
        a.record(10.0)
        assert list(a.samples()) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]
        assert list(b.samples()) == [6.0, 7.0, 8.0, 9.0]

    def test_ties_at_every_rank(self):
        recorder, model = LatencyRecorder(), _ListRecorder()
        values = [6 * 1.4] * 999 + [-0.0, 0.0] * 3 + [106.0] * 7
        recorder.extend(np.array(values))
        model.values = list(values)
        _assert_matches(recorder, model)

    def test_empty_recorder(self):
        _assert_matches(LatencyRecorder(), _ListRecorder())
        assert len(LatencyRecorder().samples()) == 0

    def test_signed_zero_sums(self):
        # sum() starts from 0.0, so an all-negative-zero stream sums to 0.0.
        recorder = LatencyRecorder()
        recorder.extend(np.array([-0.0, -0.0]))
        assert recorder.mean().hex() == (sum([-0.0, -0.0]) / 2).hex()
        assert recorder.tail_mean(0.5).hex() == (0.0).hex()

    def test_streams_compare_by_value(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.extend([1.0, 2.0])
        b.extend(np.array([1.0]))
        b.record(2.0)
        assert a.samples() == b.samples()
        b.record(3.0)
        assert a.samples() != b.samples()
        assert list(b.samples()) == [1.0, 2.0, 3.0]
        assert all(type(v) is float for v in b.samples())


class TestMemory:
    """A recorded sample costs its 8 float64 bytes, not a Python float."""

    SAMPLES = 1 << 20

    def _retained(self, fill) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            recorder = fill()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert recorder.count == self.SAMPLES
        return retained

    def _budget(self) -> int:
        # 8 bytes a sample, plus the tail's growth reserve (an ``array``
        # over-allocates by about 1/16) and slack; a Python float costs 32.
        return 8 * self.SAMPLES * 17 // 16 + (64 << 10)

    def test_record(self):
        def fill():
            recorder = LatencyRecorder()
            record = recorder.record
            for i in range(self.SAMPLES):
                record(i * 1.4)   # a distinct float object each, as latencies are
            return recorder

        assert self._retained(fill) <= self._budget()

    def test_extend_ndarray(self):
        def fill():
            recorder = LatencyRecorder()
            for start in range(0, self.SAMPLES, 100_000):
                stop = min(self.SAMPLES, start + 100_000)
                recorder.extend(np.arange(start, stop, dtype=np.float64) * 1.4)
            return recorder

        assert self._retained(fill) <= self._budget()


class TestThroughput:
    def test_simple(self):
        # 2.4e9 cycles = 1 s; 100 ops in 1 s.
        assert throughput_ops_per_sec(100, 2_400_000_000) == pytest.approx(100.0)

    def test_zero_elapsed(self):
        assert throughput_ops_per_sec(100, 0) == 0.0
