"""Per-core TLB behaviour."""

import random

import numpy as np
import pytest

from repro.common import constants
from repro.hw.tlb import REPLAY_CHUNK, TLB
from repro.sim.clock import CycleClock
from repro.sim.fastforward import window_profile


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(capacity=4)
        clock = CycleClock()
        assert not tlb.access(100, clock)
        assert tlb.access(100, clock)
        assert tlb.hits == 1 and tlb.misses == 1

    def test_miss_charges_walk(self):
        tlb = TLB()
        clock = CycleClock()
        tlb.access(1, clock)
        assert clock.now == constants.TLB_MISS_WALK_CYCLES
        tlb.access(1, clock)
        assert clock.now == constants.TLB_MISS_WALK_CYCLES   # hit is free

    def test_lru_eviction(self):
        tlb = TLB(capacity=2)
        clock = CycleClock()
        tlb.access(1, clock)
        tlb.access(2, clock)
        tlb.access(1, clock)          # refresh 1 -> 2 is now LRU
        tlb.access(3, clock)          # evicts 2
        assert 1 in tlb.resident
        assert 2 not in tlb.resident
        assert 3 in tlb.resident

    def test_fill_is_free_and_most_recent(self):
        tlb = TLB(capacity=2)
        clock = CycleClock()
        tlb.access(1, clock)
        tlb.fill(2)
        tlb.fill(1)                   # refresh 1 -> 2 is now LRU
        tlb.fill(3)                   # evicts 2
        assert tlb.resident_vpns() == {1, 3}
        assert (tlb.hits, tlb.misses) == (0, 1)
        assert clock.now == constants.TLB_MISS_WALK_CYCLES

    def test_invalidate(self):
        tlb = TLB()
        clock = CycleClock()
        tlb.access(5, clock)
        tlb.invalidate(5)
        assert 5 not in tlb.resident
        assert tlb.invalidations == 1
        tlb.invalidate(5)   # absent: no count
        assert tlb.invalidations == 1

    def test_invalidate_many(self):
        tlb = TLB()
        clock = CycleClock()
        for vpn in range(10):
            tlb.access(vpn, clock)
        tlb.invalidate_many(range(0, 10, 2))
        assert tlb.resident_vpns() == {1, 3, 5, 7, 9}

    def test_flush(self):
        tlb = TLB()
        clock = CycleClock()
        tlb.access(1, clock)
        tlb.flush()
        assert 1 not in tlb.resident
        assert tlb.flushes == 1

    def test_miss_ratio(self):
        tlb = TLB()
        clock = CycleClock()
        assert tlb.miss_ratio == 0.0
        tlb.access(1, clock)
        tlb.access(1, clock)
        assert tlb.miss_ratio == pytest.approx(0.5)

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            TLB(capacity=0)

    def test_never_exceeds_capacity(self):
        tlb = TLB(capacity=8)
        clock = CycleClock()
        for vpn in range(100):
            tlb.access(vpn, clock)
        assert len(tlb.resident_vpns()) == 8


class TestAccessWindow:
    """``access_window`` against stepping :meth:`TLB.access` per access."""

    @staticmethod
    def _pair(capacity, warm):
        tlbs = TLB(capacity), TLB(capacity)
        for tlb in tlbs:
            for vpn in warm:
                tlb.fill(vpn)
        return tlbs

    def _check(self, capacity, warm, window):
        windowed, stepped = self._pair(capacity, warm)
        clock = CycleClock()
        expected = [pos for pos, vpn in enumerate(window) if not stepped.access(vpn, clock)]
        vpns = np.array(window, dtype=np.int64)
        touched, first, last = window_profile(vpns, max(window) + 1)
        walked = windowed.access_window(vpns, touched, first[touched], last[touched])
        assert walked.dtype == np.int64
        assert walked.tolist() == expected
        assert (windowed.hits, windowed.misses) == (stepped.hits, stepped.misses)
        assert list(windowed.resident) == list(stepped.resident)

    def test_replay_across_chunk_boundaries(self):
        # More distinct vpns than the TLB holds: the LRU is replayed, in
        # chunks of REPLAY_CHUNK accesses, over several chunks.
        rng = random.Random(5)
        capacity = 1536
        window = [rng.randrange(3000) for _ in range(2 * REPLAY_CHUNK + 4000)]
        assert len(window) >= 20_000 and len(set(window)) > capacity
        self._check(capacity, warm=range(2500, 2500 + capacity), window=window)

    def test_replay_window_of_exactly_one_chunk(self):
        rng = random.Random(6)
        window = [rng.randrange(400) for _ in range(REPLAY_CHUNK)]
        self._check(64, warm=range(64), window=window)

    def test_window_that_fits_takes_first_occurrences(self):
        rng = random.Random(7)
        window = [rng.randrange(500) for _ in range(20_000)]
        self._check(1536, warm=range(1000, 1100), window=window)
