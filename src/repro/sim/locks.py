"""Lock-contention models on the simulated timeline.

The scalability results of the paper (Figure 10) hinge on two facts the
authors establish by profiling:

* Linux protects the page-cache radix tree with **a single spinlock** and
  the VMA tree with a read-write semaphore; both collapse as thread counts
  grow (Sections 3.4, 6.5).
* Aquila replaces them with a **lock-free hash table**, per-core dirty
  trees, and a radix tree with per-entry locks, so its critical sections
  do not serialize (Sections 3.2, 3.4).

Because the discrete-event executor runs threads in simulated-time order,
a lock can be modeled as a *timeline*: a record of when it next becomes
free.  A thread acquiring a lock that is busy waits (charging idle cycles)
until the holder's release time; contended handoffs additionally pay a
cache-line transfer.  This reproduces serialization and queueing delay
without real concurrency.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common import constants
from repro.common.errors import SimulationError
from repro.sim.clock import CycleClock


class LockStats:
    """Process-wide lock-contention totals across every lock timeline.

    ``repro.obs`` binds these as pull metrics (``locks.acquisitions``,
    ``locks.contended``, ``locks.wait_cycles``); per-lock numbers stay on
    the individual timelines.
    """

    def __init__(self) -> None:
        self.acquisitions = 0
        self.contended = 0
        self.wait_cycles = 0.0

    def reset(self) -> None:
        """Zero all aggregate totals."""
        self.acquisitions = 0
        self.contended = 0
        self.wait_cycles = 0.0


#: Aggregate contention stats over every lock in the process.
LOCK_STATS = LockStats()


class SpinlockTimeline:
    """An exclusive lock as a timeline of busy intervals.

    ``acquire`` blocks the calling clock until the lock frees, charging the
    wait to ``wait_category``.  ``release`` marks the lock free at the
    caller's current time.  A contended acquisition (one that had to wait)
    pays :data:`~repro.common.constants.LOCK_TRANSFER_CYCLES` for the
    cache-line handoff.
    """

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self._free_at = 0.0
        self._last_request_at = 0.0
        self._holder: Optional[int] = None
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_cycles = 0.0

    def acquire(
        self,
        clock: CycleClock,
        holder_id: int = 0,
        wait_category: str = "idle.lock",
    ) -> None:
        """Take the lock, waiting on the timeline if it is busy.

        The executor runs whole operations atomically, so a long operation
        can touch this lock at simulated times far ahead of other threads'
        clocks.  A contender whose clock *precedes* the previous holder's
        request time logically came first and does not queue behind it —
        this keeps op-granularity reordering from fabricating convoys.
        """
        if self._holder == holder_id and self._holder is not None:
            raise SimulationError(
                f"thread {holder_id} re-acquired non-reentrant lock {self.name}"
            )
        self.acquisitions += 1
        LOCK_STATS.acquisitions += 1
        if self._free_at > clock.now:
            waited = clock.wait_until(self._free_at, wait_category)
            self.contended_acquisitions += 1
            self.total_wait_cycles += waited
            LOCK_STATS.contended += 1
            LOCK_STATS.wait_cycles += waited
            clock.charge("lock.transfer", constants.LOCK_TRANSFER_CYCLES)
        self._holder = holder_id
        # Reserve the lock until release; a pessimistic placeholder far in
        # the future guards against missing-release bugs.
        self._free_at = float("inf")

    def try_acquire(self, clock: CycleClock, holder_id: int = 0) -> bool:
        """Take the lock only if it is free right now; True on success.

        Used by reclaim, mirroring the kernel's trylock-and-skip pattern —
        and essential in the simulation to keep one thread's long
        multi-lock operation from convoying everyone else.
        """
        self.acquisitions += 1
        LOCK_STATS.acquisitions += 1
        if clock.now < self._free_at:
            return False
        self._holder = holder_id
        self._free_at = float("inf")
        return True

    def release(self, clock: CycleClock, holder_id: int = 0) -> None:
        """Release the lock at the caller's current time."""
        if self._holder != holder_id:
            raise SimulationError(
                f"thread {holder_id} released lock {self.name} "
                f"held by {self._holder}"
            )
        self._holder = None
        self._free_at = clock.now

    def contention_ratio(self) -> float:
        """Fraction of acquisitions that had to wait."""
        if self.acquisitions == 0:
            return 0.0
        return self.contended_acquisitions / self.acquisitions


class RWLockTimeline:
    """A read-write lock timeline (Linux ``mmap_sem`` model).

    Readers share; writers exclude everyone.  Even uncontended reader
    acquisition performs an atomic RMW on the lock word, so the lock word
    itself is modeled as a :class:`CacheLineTimeline` — this is why
    ``mmap_sem`` limits scalability "even in cases where it is acquired as
    a read lock" (paper Section 3.4, citing Clements et al.).
    """

    def __init__(self, name: str = "rwlock") -> None:
        self.name = name
        self._readers_done_at = 0.0   # latest read-side release
        self._writer_done_at = 0.0    # latest write-side release
        self._word = CacheLineTimeline(name + ".word")
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self.total_wait_cycles = 0.0

    #: How long the lock word stays reserved per reader RMW: readers
    #: transfer the line quickly even though their local cost is higher.
    READER_WORD_RESERVE_CYCLES = 25.0

    def acquire_read(self, clock: CycleClock, wait_category: str = "idle.lock") -> None:
        """Take the lock in shared mode."""
        self.read_acquisitions += 1
        LOCK_STATS.acquisitions += 1
        before = clock.now
        self._word.atomic_op(clock, reserve=self.READER_WORD_RESERVE_CYCLES)
        if self._writer_done_at > clock.now:
            blocked = clock.wait_until(self._writer_done_at, wait_category)
            LOCK_STATS.contended += 1
            LOCK_STATS.wait_cycles += blocked
        self.total_wait_cycles += clock.now - before

    def release_read(self, clock: CycleClock) -> None:
        """Drop a shared hold at the caller's current time."""
        self._word.atomic_op(clock, reserve=self.READER_WORD_RESERVE_CYCLES)
        self._readers_done_at = max(self._readers_done_at, clock.now)

    def acquire_write(self, clock: CycleClock, wait_category: str = "idle.lock") -> None:
        """Take the lock exclusively, draining readers and writers."""
        self.write_acquisitions += 1
        LOCK_STATS.acquisitions += 1
        before = clock.now
        self._word.atomic_op(clock)
        barrier = max(self._writer_done_at, self._readers_done_at)
        blocked = clock.wait_until(barrier, wait_category)
        self.total_wait_cycles += clock.now - before
        if blocked > 0:
            LOCK_STATS.contended += 1
            LOCK_STATS.wait_cycles += blocked

    def release_write(self, clock: CycleClock) -> None:
        """Drop the exclusive hold at the caller's current time."""
        self._word.atomic_op(clock)
        self._writer_done_at = max(self._writer_done_at, clock.now)


class CacheLineTimeline:
    """Serialization point for atomic operations on one cache line.

    Atomic read-modify-write operations on a shared line serialize in the
    coherence protocol.  Each ``atomic_op`` reserves the line for
    :data:`~repro.common.constants.LOCK_TRANSFER_CYCLES`; a thread whose
    operation arrives while the line is reserved waits its turn.  Under N
    threads hammering one line this yields the linear slowdown that makes
    shared counters and lock words scale poorly.
    """

    #: Worst-case line-transfer queue depth (one hop per other core).
    MAX_QUEUE = 32

    def __init__(self, name: str = "cacheline") -> None:
        self.name = name
        self._free_at = 0.0
        self.operations = 0
        self.total_wait_cycles = 0.0

    def atomic_op(
        self,
        clock: CycleClock,
        cost: float = constants.LOCK_TRANSFER_CYCLES,
        wait_category: str = "idle.atomic",
        reserve: Optional[float] = None,
    ) -> None:
        """Perform one serialized atomic operation on this line.

        ``cost`` is the CPU cycles charged to the caller; ``reserve`` is
        how long the cache line stays unavailable to other cores (defaults
        to ``cost``).  They differ for operations whose latency is mostly
        local pipeline cost: the line itself transfers quickly.  Logical
        precedence (see :meth:`SpinlockTimeline.acquire`) avoids fabricated
        convoys from op-granularity reordering.
        """
        self.operations += 1
        reservation = reserve if reserve is not None else cost
        start = clock.now
        free_at = self._free_at
        if free_at > start:
            # An atomic op's queueing delay is physically bounded by the
            # line bouncing through every other core once; this also keeps
            # the executor's op-granularity reordering from fabricating
            # stalls.
            bound = start + reservation * self.MAX_QUEUE
            self.total_wait_cycles += clock.wait_until(
                free_at if free_at < bound else bound, wait_category
            )
            start = clock.now
        clock.charge("atomic.op", cost)
        self._free_at = start + reservation


class StripedAtomicTimeline:
    """Many independent cache lines indexed by a hash (lock-free structures).

    Aquila's lock-free hash table and per-core structures spread atomic
    traffic across many lines, so concurrent threads rarely collide.  This
    model keeps one :class:`CacheLineTimeline` per stripe.
    """

    def __init__(self, stripes: int, name: str = "striped") -> None:
        if stripes <= 0:
            raise ValueError("stripes must be positive")
        self.name = name
        self._lines = [CacheLineTimeline(f"{name}[{i}]") for i in range(stripes)]

    def atomic_op(
        self,
        clock: CycleClock,
        key: int,
        cost: float = constants.LOCK_TRANSFER_CYCLES,
        wait_category: str = "idle.atomic",
    ) -> None:
        """Atomic op on the stripe selected by ``key``."""
        line = self._lines[hash(key) % len(self._lines)]
        line.atomic_op(clock, cost, wait_category)

    def total_wait_cycles(self) -> float:
        """Aggregate wait across all stripes."""
        return sum(line.total_wait_cycles for line in self._lines)


class LockRegistry:
    """Named lock lookup for profiling-style reports in benchmarks."""

    def __init__(self) -> None:
        self._locks: Dict[str, object] = {}

    def register(self, lock: object, name: str) -> None:
        """Track ``lock`` under ``name``."""
        self._locks[name] = lock

    def get(self, name: str) -> object:
        """Fetch a registered lock by name."""
        return self._locks[name]

    def names(self) -> list:
        """Sorted registered lock names."""
        return sorted(self._locks)
