"""Per-core TLB behaviour."""

import pytest

from repro.common import constants
from repro.hw.tlb import TLB
from repro.sim.clock import CycleClock


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
        assert tlb.contains(1)
        assert not tlb.contains(2)
        assert tlb.contains(3)

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
        assert not tlb.contains(5)
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
        assert not tlb.contains(1)
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
