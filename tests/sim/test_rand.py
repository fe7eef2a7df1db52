"""Deterministic random streams and YCSB distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rand import (
    LatestGenerator,
    ScrambledZipfGenerator,
    ZipfGenerator,
    counter_draws,
    derive_seed,
    exponential_interarrivals,
    fnv1a_64,
    mix64,
    stream,
)

#: splitmix64 increment; the counter stream's draw i is mix64(start + PHI*i).
PHI = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


class TestSeeding:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_derive_seed_stream_independent(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_stream_reproducible(self):
        a = [stream(7, "x").random() for _ in range(5)]
        b = [stream(7, "x").random() for _ in range(5)]
        assert a == b


class TestFNV:
    def test_known_distinct(self):
        values = {fnv1a_64(i) for i in range(1000)}
        assert len(values) == 1000

    @given(st.integers(min_value=0, max_value=1 << 64 - 1))
    def test_in_64bit_range(self, value):
        assert 0 <= fnv1a_64(value) < 1 << 64


def _reference_draws(base, tag, count):
    """The scalar splitmix64 counter stream, one Python int per draw."""
    start = (base ^ mix64(tag)) & MASK64
    return [mix64(start + PHI * i) for i in range(count)]


def _base_for_start(start, tag):
    """The base whose ``(base, tag)`` stream starts its counter at ``start``."""
    return start ^ mix64(tag)


class TestCounterDrawsParity:
    """The vectorized uint64 stream equals the scalar mix64 reference."""

    PAIRS = [
        (0, 0),
        (1, 1),
        (derive_seed(7, "mb-0"), 3),
        (MASK64, 2),
        # Counter starts within count*PHI of 2**64: the uint64 sums wrap
        # within the first draws.
        (_base_for_start(MASK64, 5), 5),
        (_base_for_start((1 << 64) - PHI, 21), 21),
        (_base_for_start((1 << 64) - 3 * PHI // 2, 9), 9),
    ]

    @pytest.mark.parametrize("count", [0, 1, 10_000])
    @pytest.mark.parametrize("base, tag", PAIRS)
    def test_matches_scalar_reference(self, base, tag, count):
        draws = counter_draws(base, tag, count)
        assert draws.dtype == np.uint64
        assert draws.shape == (count,)
        assert draws.tolist() == _reference_draws(base, tag, count)

    def test_reference_wraps(self):
        start = (_base_for_start(MASK64, 5) ^ mix64(5)) & MASK64
        assert start + PHI > MASK64


class TestExponentialInterarrivals:
    """Closed-form moments and exact regeneration of the gap sampler.

    The serve layer's open-loop schedules are built on these gaps, so the
    properties here (with the 256-seed sweep in
    ``tests/serve/test_properties.py``) are what make arrival processes
    both statistically honest and bit-reproducible.
    """

    MEAN = 750.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 40, 99, 123, 200])
    def test_mean_and_variance_vs_closed_form(self, seed):
        base = derive_seed(seed, "gaps")
        gaps = exponential_interarrivals(base, 5, 512, self.MEAN)
        mean = sum(gaps) / len(gaps)
        assert 0.75 * self.MEAN <= mean <= 1.25 * self.MEAN
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        # Exponential: variance == mean^2.
        assert 0.5 <= var / mean**2 <= 1.6

    def test_byte_identical_regeneration_from_seed_and_counter(self):
        base = derive_seed(9, "gaps")
        assert exponential_interarrivals(base, 2, 300, self.MEAN) == (
            exponential_interarrivals(base, 2, 300, self.MEAN)
        )
        # Prefix stability: counter-addressed draws never depend on count.
        long = exponential_interarrivals(base, 2, 300, self.MEAN)
        assert exponential_interarrivals(base, 2, 64, self.MEAN) == long[:64]

    def test_gaps_are_positive_integers(self):
        gaps = exponential_interarrivals(derive_seed(3, "gaps"), 1, 1000, 2.0)
        assert all(isinstance(g, int) and g >= 1 for g in gaps)

    def test_streams_are_tag_independent(self):
        base = derive_seed(21, "gaps")
        assert exponential_interarrivals(base, 1, 64, self.MEAN) != (
            exponential_interarrivals(base, 2, 64, self.MEAN)
        )

    def test_tracks_the_underlying_counter_stream(self):
        # The gap at index i is a pure function of draw i of the same
        # (base, tag) counter stream — resampling any prefix of the raw
        # stream reproduces the same transformed gaps.
        import math

        base = derive_seed(33, "gaps")
        draws = counter_draws(base, 4, 16).tolist()
        expected = [
            max(1, round(-self.MEAN * math.log((d + 0.5) / 2.0**64)))
            for d in draws
        ]
        assert exponential_interarrivals(base, 4, 16, self.MEAN) == expected

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            exponential_interarrivals(derive_seed(1, "gaps"), 1, 4, 0.0)


class TestZipf:
    def test_range(self):
        zipf = ZipfGenerator(100, rng=stream(1, "z"))
        for _ in range(2000):
            assert 0 <= zipf.next() < 100

    def test_skew(self):
        """Rank 0 must be drawn far more often than the median rank."""
        zipf = ZipfGenerator(1000, rng=stream(1, "skew"))
        counts = {}
        for _ in range(20000):
            v = zipf.next()
            counts[v] = counts.get(v, 0) + 1
        assert counts.get(0, 0) > 20 * counts.get(500, 1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, theta=1.5)

    @settings(max_examples=20)
    @given(st.integers(min_value=1, max_value=100_000))
    def test_any_size_in_range(self, n):
        zipf = ZipfGenerator(n, rng=stream(3, "any"))
        for _ in range(20):
            assert 0 <= zipf.next() < n


class TestScrambledZipf:
    def test_range_and_spread(self):
        gen = ScrambledZipfGenerator(1000, rng=stream(2, "s"))
        draws = [gen.next() for _ in range(5000)]
        assert all(0 <= d < 1000 for d in draws)
        # Scrambling spreads the hot keys away from rank 0: the most
        # common value is usually not 0.
        most_common = max(set(draws), key=draws.count)
        hot_fraction = draws.count(most_common) / len(draws)
        assert hot_fraction > 0.02, "still skewed after scrambling"


class TestLatest:
    def test_favors_recent(self):
        gen = LatestGenerator(1000, rng=stream(4, "l"))
        draws = [gen.next() for _ in range(5000)]
        assert all(0 <= d < 1000 for d in draws)
        recent = sum(1 for d in draws if d >= 900)
        old = sum(1 for d in draws if d < 100)
        assert recent > 5 * max(old, 1)

    def test_grow_extends_range(self):
        gen = LatestGenerator(10, rng=stream(5, "g"))
        for _ in range(100):
            gen.grow()
        draws = [gen.next() for _ in range(500)]
        assert max(draws) > 10, "new keys must become drawable"
        assert all(0 <= d < 110 for d in draws)
