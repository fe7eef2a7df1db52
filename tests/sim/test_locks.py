"""Lock-contention timeline models."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.clock import CycleClock
from repro.sim.locks import (
    CacheLineTimeline,
    RWLockTimeline,
    SpinlockTimeline,
    StripedAtomicTimeline,
)


class TestSpinlockTimeline:
    def test_uncontended_is_free(self):
        lock = SpinlockTimeline()
        clock = CycleClock()
        lock.acquire(clock, 1)
        clock.charge("work", 100)
        lock.release(clock, 1)
        assert clock.now == 100
        assert lock.contended_acquisitions == 0

    def test_contended_waits_for_holder(self):
        lock = SpinlockTimeline()
        a, b = CycleClock(), CycleClock()
        lock.acquire(a, 1)
        a.charge("hold", 500)
        lock.release(a, 1)
        b.charge("arrive", 100)   # b requests at t=100, lock free at t=500
        lock.acquire(b, 2)
        assert b.now >= 500
        assert lock.contended_acquisitions == 1
        assert lock.total_wait_cycles == 400
        lock.release(b, 2)

    def test_reacquire_same_holder_rejected(self):
        lock = SpinlockTimeline()
        clock = CycleClock()
        lock.acquire(clock, 7)
        with pytest.raises(SimulationError):
            lock.acquire(clock, 7)

    def test_wrong_holder_release_rejected(self):
        lock = SpinlockTimeline()
        clock = CycleClock()
        lock.acquire(clock, 1)
        with pytest.raises(SimulationError):
            lock.release(clock, 2)

    def test_try_acquire(self):
        lock = SpinlockTimeline()
        a, b = CycleClock(), CycleClock()
        lock.acquire(a, 1)
        a.charge("hold", 1000)
        # b arrives while the hold is pending -> busy.
        b.charge("arrive", 10)
        assert not lock.try_acquire(b, 2)
        lock.release(a, 1)
        # after release time, trylock succeeds.
        b.wait_until(2000, "idle")
        assert lock.try_acquire(b, 2)
        lock.release(b, 2)

    def test_serialization_bounds_throughput(self):
        """N lockstep clients of one lock serialize to ~hold each."""
        lock = SpinlockTimeline()
        clocks = [CycleClock() for _ in range(8)]
        for _ in range(10):   # 10 rounds of lock/hold(100)/release each
            for i, clock in enumerate(sorted(clocks, key=lambda c: c.now)):
                lock.acquire(clock, id(clock))
                clock.charge("hold", 100)
                lock.release(clock, id(clock))
        finish = max(c.now for c in clocks)
        assert finish >= 8 * 10 * 100, "80 serialized holds of 100 cycles"

    def test_contention_ratio(self):
        lock = SpinlockTimeline()
        clock = CycleClock()
        lock.acquire(clock, 1)
        lock.release(clock, 1)
        assert lock.contended_acquisitions / lock.acquisitions == 0.0


class TestRWLockTimeline:
    def test_readers_share(self):
        lock = RWLockTimeline()
        a, b = CycleClock(), CycleClock()
        lock.acquire_read(a)
        lock.acquire_read(b)   # no exclusion between readers
        a_now, b_now = a.now, b.now
        lock.release_read(a)
        lock.release_read(b)
        # Readers only pay the word RMW, never a full exclusion wait.
        assert a_now < 1000 and b_now < 1000

    def test_writer_waits_for_readers(self):
        lock = RWLockTimeline()
        reader, writer = CycleClock(), CycleClock()
        lock.acquire_read(reader)
        reader.charge("read.work", 1000)
        lock.release_read(reader)
        lock.acquire_write(writer)
        assert writer.now >= 1000
        lock.release_write(writer)

    def test_reader_waits_for_writer(self):
        lock = RWLockTimeline()
        writer, reader = CycleClock(), CycleClock()
        lock.acquire_write(writer)
        writer.charge("write.work", 2000)
        lock.release_write(writer)
        lock.acquire_read(reader)
        assert reader.now >= 2000
        lock.release_read(reader)


class TestCacheLineTimeline:
    def test_single_op_cost(self):
        line = CacheLineTimeline()
        clock = CycleClock()
        line.atomic_op(clock, cost=100)
        assert clock.now == 100

    def test_serialization_under_hammering(self):
        line = CacheLineTimeline()
        clocks = [CycleClock() for _ in range(4)]
        for clock in clocks:
            line.atomic_op(clock, cost=100)
        # The 4th op starts no earlier than 3 reservations in.
        assert max(c.now for c in clocks) >= 400

    def test_wait_is_bounded(self):
        """Op-granularity reordering cannot fabricate unbounded stalls."""
        line = CacheLineTimeline()
        late = CycleClock()
        late.charge("x", 10_000_000)
        line.atomic_op(late, cost=100)
        early = CycleClock()
        line.atomic_op(early, cost=100)
        # early waits at most MAX_QUEUE reservations, not 10M cycles.
        assert early.now <= 100 * (CacheLineTimeline.MAX_QUEUE + 1)

    def test_reserve_shorter_than_cost(self):
        line = CacheLineTimeline()
        a, b = CycleClock(), CycleClock()
        line.atomic_op(a, cost=100, reserve=10)
        line.atomic_op(b, cost=100, reserve=10)
        # b waited for at most the 10-cycle reservation.
        assert b.now <= 100 + 10


class TestStripedAtomicTimeline:
    def test_different_stripes_independent(self):
        striped = StripedAtomicTimeline(stripes=1024)
        a, b = CycleClock(), CycleClock()
        striped.atomic_op(a, key="alpha")
        striped.atomic_op(b, key="beta")
        # Unless the hash collides, neither waited on the other.
        assert a.now <= 100 and b.now <= 100

    def test_rejects_zero_stripes(self):
        with pytest.raises(ValueError):
            StripedAtomicTimeline(stripes=0)

    def test_total_wait_aggregates(self):
        striped = StripedAtomicTimeline(stripes=1)
        clocks = [CycleClock() for _ in range(3)]
        for clock in clocks:
            striped.atomic_op(clock, key=0)
        assert striped.total_wait_cycles() > 0
