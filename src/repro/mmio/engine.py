"""The mmio engine interface and shared access protocol.

An *engine* plays the role of one process's memory-mapped I/O stack: a
page table, a VMA store, a DRAM cache, and a fault protocol.  Engines
share the mmap-compatible surface (``mmap``/``munmap``/``madvise``/
``msync``/``load``/``store``), so applications (RocksDB, Kreon, Ligra, the
microbenchmark) run unmodified on any of them — the paper's
minimal-modification property.

The access fast path is the same for every engine, because it is the
hardware's: a mapped page costs a load/store plus at most a TLB refill.
Engines differ only in what a *fault* costs and how the cache behaves.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.common import constants, units
from repro.common.errors import ProtectionFault, SegmentationFault
from repro.devices.block import BlockDevice
from repro.fault.crash import CRASH
from repro.fault.retry import RetryPolicy, with_retries
from repro.hw.ipi import ABSORB_CATEGORY
from repro.hw.machine import Machine
from repro.hw.page_table import PageTable
from repro.hw.vmx import VMXCostModel
from repro.cache.base import CachePage
from repro.mmio.files import BackingFile
from repro.mmio.vma import (
    MADV_DONTNEED,
    MADV_NORMAL,
    MADV_RANDOM,
    MADV_SEQUENTIAL,
    MADV_WILLNEED,
    PROT_READ,
    PROT_WRITE,
    VMA,
    VMAStore,
)
from repro.obs import METRICS, TRACER
from repro.sim.executor import SimThread
from repro.sim.fastforward import (
    MAX_ANALYTIC_PAGES,
    MAX_ANALYTIC_WINDOW,
    MIN_ANALYTIC_RUN,
    expected_hit_run_length,
    stepped_clock,
    window_profile,
    write_cut,
)


def _stepped_sum(total: float, step: float, count: int) -> float:
    """``total`` after ``count`` stepped float adds of ``step``.

    Equals the per-op ``+=`` sequence bit for bit: integer-valued sums
    below 2**53 are exact under any association, so they take one
    multiply; anything else (a CPI-scaled step) replays the adds.
    """
    if step.is_integer() and total.is_integer() and total + step * count < 2.0**53:
        return total + step * count
    for _ in range(count):
        total += step
    return total


#: Categories the hit loop charges itself (a pre-charge may not reuse them).
_HIT_CATEGORIES = frozenset({"app.access", "tlb.miss_walk", ABSORB_CATEGORY})


def _hit_charges(
    hit_step: float, hits: int, walk_step: float, walks: int, walked_first: bool
) -> List[Tuple[str, float, int]]:
    """A hit run's ``(category, step, count)`` charges, in first-charge order.

    Every hit charges ``app.access`` after its TLB walk, if any; so the
    walk category comes first only when the run's first access walked.
    """
    access = ("app.access", hit_step, hits)
    walk = ("tlb.miss_walk", walk_step, walks)
    return [walk, access] if walked_first else [access, walk]


def _flush_charges(cycles, span, charged, slots_only: bool = False) -> None:
    """Apply stepped ``(category, step, count)`` charges to the ledgers.

    The ledgers are the clock's breakdown ``cycles`` and the open
    ``span``'s charges, if any.  A category absent from a ledger enters
    it in list order, so listing charges in first-charge order keeps
    each ledger's insertion order that of per-access ``clock.charge``
    calls.  ``slots_only`` only inserts the missing categories, at 0.0:
    the run is still going, and a direct charge is about to land.
    """
    ledgers = (cycles,) if span is None else (cycles, span.charges)
    for ledger in ledgers:
        for category, step, count in charged:
            # ``clock.charge`` skips zero charges in the breakdown; spans
            # record them.
            if category is None or not count or (not step and ledger is cycles):
                continue
            if slots_only:
                if category not in ledger:
                    ledger[category] = 0.0
            else:
                ledger[category] = _stepped_sum(ledger.get(category, 0.0), step, count)


class Mapping:
    """A live mapping handle returned by ``MmioEngine.mmap``."""

    def __init__(self, engine: "MmioEngine", vma: VMA) -> None:
        self.engine = engine
        self.vma = vma
        self.active = True

    @property
    def size_bytes(self) -> int:
        """Length of the mapped range in bytes."""
        return self.vma.num_pages * units.PAGE_SIZE

    def load(self, thread: SimThread, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at byte ``offset`` within the mapping."""
        return self.engine.load(thread, self, offset, nbytes)

    def store(self, thread: SimThread, offset: int, data: bytes) -> None:
        """Write ``data`` at byte ``offset`` within the mapping."""
        self.engine.store(thread, self, offset, data)

    def load_run(
        self,
        thread: SimThread,
        plan,
        index: int,
        nbytes: int,
        pre_charge: Tuple[str, float],
        stop: bytes,
    ) -> List[bytes]:
        """Consecutive loads until one reads ``stop`` (``MmioEngine.load_run``)."""
        return self.engine.load_run(thread, self, plan, index, nbytes, pre_charge, stop)

    def msync(self, thread: SimThread) -> int:
        """Flush this mapping's dirty pages; returns pages written."""
        return self.engine.msync(thread, self)

    def mprotect(self, thread: SimThread, prot: int) -> None:
        """Change the mapping's protection flags."""
        self.engine.mprotect(thread, self, prot)

    def mremap(self, thread: SimThread, new_num_pages: int) -> None:
        """Grow or shrink the mapping (moves the virtual range)."""
        self.engine.mremap(thread, self, new_num_pages)

    def madvise(self, thread: SimThread, advice: int) -> None:
        """Set the access-pattern advice for this mapping."""
        self.engine.madvise(thread, self, advice)

    def munmap(self, thread: SimThread) -> None:
        """Tear this mapping down."""
        self.engine.munmap(thread, self)


class MmioEngine:
    """Abstract memory-mapped I/O engine."""

    name = "abstract"

    #: Retry policy for transient writeback faults (None = stack default).
    retry_policy: Optional[RetryPolicy] = None

    #: Minimum cycles this engine charges between an operation's start and
    #: its first cross-thread-visible interaction (the batching invariant;
    #: see ``repro.sim.executor``).  Subclasses override with their audited
    #: value; ``tests/conformance/test_invariant.py`` checks the bound.
    sync_preamble_cycles: float = constants.SYSCALL_CYCLES

    #: Analytic fast-forward switch (see ``repro.sim.fastforward``).  When
    #: True *and* a run's gates hold (unbounded horizon, no pending
    #: interference, a miss-rate model that expects long hit runs),
    #: ``retire`` retires whole all-hit windows in closed form.  Faults
    #: take the one reference protocol in every mode.  Off by default:
    #: unbatched mode stays a pristine per-op reference, and hand-built
    #: stacks opt in explicitly.
    fastforward: bool = False

    #: Counter attributes exposed as ``engine.<name>.*`` pull metrics.
    METRIC_FIELDS: Dict[str, str] = {
        "faults.total": "faults",
        "faults.major": "major_faults",
        "faults.minor": "minor_faults",
        "faults.wp": "wp_faults",
        "hit_runs": "hit_runs",
        "batched_hits": "batched_hits",
    }

    def __init__(self, machine: Machine, vmas: VMAStore, vmx: VMXCostModel) -> None:
        self.machine = machine
        self.vmas = vmas
        self.vmx = vmx
        self.page_table = PageTable()
        # Per-file completion horizon of queued (sync=False) writebacks.
        # Async writeback marks pages clean at submission; a durability
        # call must still wait for these completions before returning.
        self._wb_inflight: Dict[int, float] = {}
        self.faults = 0
        self.major_faults = 0      # needed device I/O
        self.minor_faults = 0      # page present (race/hit) or write-protect
        self.wp_faults = 0         # write-protect (dirty-tracking) subset
        self.hit_runs = 0          # batched-mode hit runs retired by retire
        self.batched_hits = 0      # operations retired inside those runs
        self.ff_runs = 0           # analytic closed-form windows retired
        self.ff_hits = 0           # accesses retired inside those windows
        # Quiescence-certificate bookkeeping (run_ahead_unbounded_ok).
        self._mapped_vma_pages = 0
        self._ranges_disturbed = False
        self._dirtied = False
        METRICS.bind_object(f"engine.{self.name}", self, self.METRIC_FIELDS)

    # -- mmap-compatible surface ------------------------------------------

    def mmap(
        self,
        thread: SimThread,
        file: BackingFile,
        num_pages: Optional[int] = None,
        file_start_page: int = 0,
        prot: int = PROT_READ | PROT_WRITE,
    ) -> Mapping:
        """Map ``file`` into the address space (shared, file-backed)."""
        self._charge_range_update(thread)
        vma = self.vmas.mmap(thread.clock, file, num_pages, file_start_page, prot)
        self._mapped_vma_pages += vma.num_pages
        return Mapping(self, vma)

    def munmap(self, thread: SimThread, mapping: Mapping) -> None:
        """Destroy a mapping: flush dirty pages, drop PTEs and TLB entries."""
        if not mapping.active:
            return
        self._ranges_disturbed = True
        self._mapped_vma_pages -= mapping.vma.num_pages
        self._charge_range_update(thread)
        self.msync(thread, mapping)
        vpns = [
            vpn
            for vpn, _ in self.page_table.mapped_range(
                mapping.vma.start_vpn, mapping.vma.num_pages
            )
        ]
        for vpn in vpns:
            pte = self.page_table.remove(vpn)
            page = self._cached_page(mapping.vma.file, mapping.vma.file_page_of(vpn))
            if page is not None and pte is not None:
                page.mapped_vpns.discard(vpn)
        self._shootdown(thread, vpns)
        self.vmas.remove(thread.clock, mapping.vma)
        mapping.active = False

    def madvise(self, thread: SimThread, mapping: Mapping, advice: int) -> None:
        """Record access-pattern advice (affects readahead)."""
        if advice not in (
            MADV_NORMAL,
            MADV_RANDOM,
            MADV_SEQUENTIAL,
            MADV_WILLNEED,
            MADV_DONTNEED,
        ):
            raise ValueError(f"unknown madvise advice {advice}")
        thread.clock.charge("syscall.madvise", self._advise_cost())
        mapping.vma.advice = advice

    def msync(self, thread: SimThread, mapping: Mapping) -> int:
        """Write back this mapping's dirty pages (device-offset order)."""
        raise NotImplementedError

    def mprotect(self, thread: SimThread, mapping: Mapping, prot: int) -> None:
        """Change an area's protection flags.

        Dropping write permission downgrades every writable PTE and shoots
        the stale translations down; granting it back is lazy — the next
        store takes a protection fault as usual.
        """
        if not mapping.active:
            raise SegmentationFault(0, "mprotect on unmapped region")
        self._ranges_disturbed = True
        self._charge_range_update(thread)
        vma = mapping.vma
        vma.prot = prot
        if prot & PROT_WRITE:
            return
        vpns: List[int] = []
        for vpn, pte in self.page_table.mapped_range(vma.start_vpn, vma.num_pages):
            if pte.writable:
                pte.writable = False
                vpns.append(vpn)
        self._shootdown(thread, vpns)

    def mremap(self, thread: SimThread, mapping: Mapping, new_num_pages: int) -> None:
        """Grow or shrink a mapping (MREMAP_MAYMOVE semantics).

        The area moves to a fresh virtual range; present PTEs migrate with
        their frames (no data copies), the old translations are shot down,
        and pages beyond a shrunken end simply lose their mappings (their
        cached data is untouched — mremap does not truncate the file).
        """
        if not mapping.active:
            raise SegmentationFault(0, "mremap on unmapped region")
        if new_num_pages <= 0:
            raise ValueError("mapping must keep at least one page")
        old = mapping.vma
        if new_num_pages == old.num_pages:
            return
        if old.file_start_page + new_num_pages > old.file.size_pages:
            raise ValueError("mremap extends past end of file")
        self._ranges_disturbed = True
        self._mapped_vma_pages += new_num_pages - old.num_pages
        self._charge_range_update(thread)
        new_vma = self.vmas.mmap(
            thread.clock,
            old.file,
            num_pages=new_num_pages,
            file_start_page=old.file_start_page,
            prot=old.prot,
        )
        new_vma.advice = old.advice
        old_vpns: List[int] = []
        for vpn, pte in list(self.page_table.mapped_range(old.start_vpn, old.num_pages)):
            rel = vpn - old.start_vpn
            page = self._cached_page(old.file, old.file_page_of(vpn))
            self.page_table.remove(vpn)
            old_vpns.append(vpn)
            if page is not None:
                page.mapped_vpns.discard(vpn)
            if rel < new_num_pages:
                moved = self.page_table.install(
                    new_vma.start_vpn + rel, pte.frame, writable=pte.writable
                )
                moved.dirty = pte.dirty
                if page is not None:
                    page.mapped_vpns.add(new_vma.start_vpn + rel)
        self._shootdown(thread, old_vpns)
        self.vmas.remove(thread.clock, old)
        mapping.vma = new_vma

    # -- loads and stores ---------------------------------------------------

    def load(self, thread: SimThread, mapping: Mapping, offset: int, nbytes: int) -> bytes:
        """Memory-read through the mapping; faults on unmapped pages."""
        end = self._check_bounds(mapping, offset, nbytes)
        chunks = []
        pos = offset
        while pos < end:
            in_page = pos & (units.PAGE_SIZE - 1)
            take = min(end - pos, units.PAGE_SIZE - in_page)
            frame = self._ensure_mapped(thread, mapping, pos - in_page, is_write=False)
            chunks.append(self._pool().read_partial(frame, in_page, take))
            pos += take
        return chunks[0] if len(chunks) == 1 else b"".join(chunks)

    def store(self, thread: SimThread, mapping: Mapping, offset: int, data: bytes) -> None:
        """Memory-write through the mapping; faults for dirty tracking."""
        end = self._check_bounds(mapping, offset, len(data))
        pos = offset
        while pos < end:
            in_page = pos & (units.PAGE_SIZE - 1)
            take = min(end - pos, units.PAGE_SIZE - in_page)
            frame = self._ensure_mapped(thread, mapping, pos - in_page, is_write=True)
            start = pos - offset
            self._pool().write_partial(frame, in_page, data[start : start + take])
            pos += take

    @staticmethod
    def _check_bounds(mapping: Mapping, offset: int, nbytes: int) -> int:
        """End of ``[offset, +nbytes)``; raises before any charge if outside."""
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > mapping.size_bytes:
            raise SegmentationFault(
                offset, f"access [{offset}, +{nbytes}) outside mapping"
            )
        return end

    def _ensure_mapped(
        self, thread: SimThread, mapping: Mapping, page_offset: int, is_write: bool
    ) -> int:
        """The hardware access protocol for one page; returns its frame."""
        if not mapping.active:
            raise SegmentationFault(page_offset, "access to unmapped region")
        if is_write and not mapping.vma.prot & PROT_WRITE:
            raise ProtectionFault(page_offset, "write to read-only mapping")
        self.machine.interference.absorb(thread.core, thread.clock)
        vpn = mapping.vma.start_vpn + (page_offset >> units.PAGE_SHIFT)
        pte = self.page_table.lookup(vpn)
        if pte is not None and (not is_write or pte.writable):
            # Pure hardware hit: no software on the path.
            self.machine.tlb_of(thread).access(vpn, thread.clock)
            thread.clock.charge("app.access", constants.LOAD_STORE_HIT_CYCLES)
            pte.accessed = True
            return pte.frame
        if pte is not None and is_write and not pte.writable:
            self.faults += 1
            self.minor_faults += 1
            self.wp_faults += 1
            self._dirtied = True
            with TRACER.span("fault.wp", thread.clock):
                return self._write_protect_fault(thread, mapping.vma, vpn, pte)
        self.faults += 1
        if is_write:
            self._dirtied = True
        with TRACER.span("fault", thread.clock):
            return self._fault(thread, mapping.vma, vpn, is_write)

    def retire(
        self,
        thread: SimThread,
        mapping: Mapping,
        plan,
        index: int,
        write_data: bytes,
    ) -> int:
        """Retire the next operations of ``plan`` from ``index``.

        ``plan`` is an :class:`~repro.sim.fastforward.AccessPlan`: three
        parallel sequences ``(pages, in_page_offsets, is_write_flags)``,
        one entry per access, each access inside one page; a store writes
        ``write_data`` and a load reads as many bytes (and discards them:
        a load changes no state).  In batched mode (``thread.run_horizon``
        is set) a run of consecutive pure hits retires in one step
        through the hit loop.  Otherwise — and whenever the next access
        needs the fault path — exactly one access retires through the
        reference protocol of :meth:`load`/:meth:`store`: the same
        bounds check, protection check, charges and trace spans.  Every
        retired access records its latency on ``thread.latencies``.

        Returns the number of accesses retired (at least 1).
        """
        pages, offsets, writes = plan
        page = pages[index]
        is_write = writes[index]
        clock = thread.clock
        horizon = thread.run_horizon
        if (
            horizon is not None
            and clock.now <= horizon
            and self._is_hit(mapping, page, is_write)
        ):
            retired = self._fast_forward(thread, mapping, plan, index, horizon)
            latencies: List[float] = []
            retired += self._hit_run(
                thread, mapping, plan, index + retired, horizon, write_data, latencies
            )
            thread.latencies.extend(latencies)
            thread.ops_completed += retired
            self.hit_runs += 1
            self.batched_hits += retired
            return retired
        start = clock.now
        with TRACER.span("op.access", clock):
            if not 0 <= page < mapping.vma.num_pages:
                offset = page * units.PAGE_SIZE + offsets[index]
                raise SegmentationFault(
                    offset, f"access [{offset}, +{len(write_data)}) outside mapping"
                )
            frame = self._ensure_mapped(
                thread, mapping, page * units.PAGE_SIZE, is_write
            )
            if is_write:
                self._pool().write_partial(frame, offsets[index], write_data)
        thread.record_op(start)
        return 1

    def load_run(
        self,
        thread: SimThread,
        mapping: Mapping,
        plan,
        index: int,
        nbytes: int,
        pre_charge: Tuple[str, float],
        stop: bytes,
    ) -> List[bytes]:
        """Load the accesses of ``plan`` from ``index`` until one reads ``stop``.

        ``plan`` is two parallel sequences ``(pages, in_page_offsets)``,
        one ``nbytes`` load per entry, each inside one page.  Before each
        load the caller's own per-access work, ``pre_charge = (category,
        cycles)``, is charged — the sequence is exactly ``clock.charge``
        then :meth:`load`, access after access: same charges in the same
        order, same TLB and PTE state, same values.  Runs of pure hits
        retire through the hit loop with no horizon: no other thread
        runs inside one executor step, so nothing can change the page
        table or post interference behind the run.  Any other access
        (fault, out of range, unmapped) takes :meth:`load` itself.

        Returns the loaded values in order; the last equals ``stop``
        unless the plan ran out first.  The caller records its op.
        """
        category, cycles = pre_charge
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles} for {category}")
        if category in _HIT_CATEGORIES:
            raise ValueError(f"pre-charge category {category!r} is charged by the hit path")
        pages, offsets = plan
        accesses = (pages, offsets, [False] * len(pages))
        # The hit loop loads as many bytes as its (unused) write data.
        load_width = bytes(nbytes)
        values: List[bytes] = []
        latencies: List[float] = []
        clock = thread.clock
        total = len(pages)
        while index < total:
            page = pages[index]
            if self._is_hit(mapping, page, False):
                retired = self._hit_run(
                    thread, mapping, accesses, index, math.inf, load_width, latencies,
                    pre_charge, values, stop,
                )
                self.hit_runs += 1
                self.batched_hits += retired
                index += retired
            else:
                clock.charge(category, cycles)
                values.append(
                    self.load(thread, mapping, page * units.PAGE_SIZE + offsets[index], nbytes)
                )
                index += 1
            if values[-1] == stop:
                break
        return values

    def _is_hit(self, mapping: Mapping, page: int, is_write: bool) -> bool:
        """Whether an access is a pure hardware hit: no software on its path."""
        vma = mapping.vma
        if not mapping.active or not 0 <= page < vma.num_pages:
            return False
        if is_write and not vma.prot & PROT_WRITE:
            return False
        pte = self.page_table.lookup(vma.start_vpn + page)
        return pte is not None and (not is_write or pte.writable)

    def _fast_forward(
        self, thread: SimThread, mapping: Mapping, plan, index: int, horizon: float
    ) -> int:
        """Retire whole all-hit windows of ``plan`` in closed form.

        Only under the analytic gates (see ``repro.sim.fastforward``):
        fast-forward on, unbounded horizon, no pending interference, and
        a miss-rate model that expects windows above the amortization
        floor.  CPI, clock value, TLB pressure and tracing are no gates:
        the closed form is exact for each.  Returns how many accesses
        retired (0 when a gate fails); the hit loop carries on from
        there.
        """
        vma = mapping.vma
        total = len(plan[0])
        if not (
            self.fastforward
            and horizon == math.inf
            and total - index >= MIN_ANALYTIC_RUN
            and thread.core not in self.machine.interference._pending
            and vma.num_pages <= MAX_ANALYTIC_PAGES
        ):
            return 0
        cache = getattr(self, "cache", None)
        if cache is None or expected_hit_run_length(
            self._mapped_vma_pages, cache.capacity_pages
        ) < MIN_ANALYTIC_RUN:
            return 0
        # Each call retires at most MAX_ANALYTIC_WINDOW accesses (profiling
        # cost stays bounded); loop while full windows keep retiring so
        # long runs never fall to the per-op loop.  Every gate above is
        # preserved across iterations: no other thread runs inside this
        # call (pending interference cannot appear), and the plan arrays
        # don't change.
        tlb = self.machine.tlb_of(thread)
        retired = 0
        while total - index >= MIN_ANALYTIC_RUN:
            window = self._hit_run_analytic(thread, vma, tlb, plan, index, total)
            if not window:
                break
            index += window
            retired += window
        return retired

    def _hit_run(
        self,
        thread: SimThread,
        mapping: Mapping,
        accesses,
        index: int,
        horizon: float,
        write_data: bytes,
        latencies: List[float],
        pre_charge: Optional[Tuple[str, float]] = None,
        loaded: Optional[List[bytes]] = None,
        stop: Optional[bytes] = None,
    ) -> int:
        """Retire a run of consecutive pure-hit accesses in one step.

        The run starts at ``index`` and consumes while each access starts
        at or before ``horizon`` and hits: PTE present and writable when
        needed.  Per access, the loop charges the caller's
        ``pre_charge`` if any, then replays the hit branch of
        :meth:`_ensure_mapped` (absorb interference, TLB access, hit
        charge) with the clock advanced op by op, and appends the
        access's latency to ``latencies``.  With ``loaded`` it also
        appends each load's bytes there, and ends the run right after
        a load that reads ``stop``.

        The per-category charges go through running sums that start from
        the current breakdown (and open span) value and add in stepped
        order, flushed once per run — bit exact at any CPI factor — and
        new categories enter each ledger in the order their first charge
        would have added them.  A run is therefore cycle- and
        state-identical to the same accesses retired one at a time, the
        property the ``tests/conformance`` tier checks.

        The caller has checked that the first access hits, so at least
        one is consumed; returns how many.
        """
        vma = mapping.vma
        vma_writable = bool(vma.prot & PROT_WRITE)
        num_pages = vma.num_pages
        start_vpn = vma.start_vpn
        clock = thread.clock
        pages_seq, offsets_seq, writes_seq = accesses
        pte_get = self.page_table._entries.get
        machine = self.machine
        tlb = machine.tlb_of(thread)
        interference = machine.interference
        pending = interference._pending
        core = thread.core
        span = clock._obs_span
        cycles = clock.breakdown._cycles
        total = len(pages_seq)
        entries = tlb._entries
        move_to_end = entries.move_to_end
        tlb_capacity = tlb.capacity
        pool = self._pool()
        read_partial = pool.read_partial
        nbytes = len(write_data)
        hit_step = constants.LOAD_STORE_HIT_CYCLES * clock.cpi_factor
        walk_step = constants.TLB_MISS_WALK_CYCLES * clock.cpi_factor
        pre_category, pre_step = None, 0.0
        if pre_charge is not None:
            pre_category = pre_charge[0]
            pre_step = pre_charge[1] * clock.cpi_factor
        append = latencies.append
        first = index
        first_walk = -1
        walks = 0
        now = clock.now
        while index < total and now <= horizon:
            page = pages_seq[index]
            is_write = writes_seq[index]
            if (is_write and not vma_writable) or not 0 <= page < num_pages:
                break
            vpn = start_vpn + page
            pte = pte_get(vpn)
            if pte is None or (is_write and not pte.writable):
                # Needs the fault path: leave the whole op (including its
                # interference absorb) to the one-op path so its recorded
                # latency matches unbatched execution.
                break
            start = now
            now += pre_step
            if core in pending:
                clock.now = now
                if ABSORB_CATEGORY not in cycles or (
                    span is not None and ABSORB_CATEGORY not in span.charges
                ):
                    # The absorb may add its category to a ledger; first
                    # give the categories this run has charged so far
                    # their slots, so it lands after them as it would.
                    done = index - first
                    charged = [(pre_category, pre_step, done + 1)] + _hit_charges(
                        hit_step, done, walk_step, walks, first_walk == first
                    )
                    _flush_charges(cycles, span, charged, slots_only=True)
                interference.absorb(core, clock)
                now = clock.now
            if vpn in entries:
                move_to_end(vpn)
                tlb.hits += 1
            else:
                tlb.misses += 1
                now += walk_step
                if not walks:
                    first_walk = index
                walks += 1
                entries[vpn] = None
                if len(entries) > tlb_capacity:
                    entries.popitem(last=False)
            now += hit_step
            pte.accessed = True
            append(now - start)
            index += 1
            if is_write:
                pool.write_partial(pte.frame, offsets_seq[index - 1], write_data)
            elif loaded is not None:
                value = read_partial(pte.frame, offsets_seq[index - 1], nbytes)
                loaded.append(value)
                if value == stop:
                    break
        clock.now = now
        hits = index - first
        if hits:
            charged = [(pre_category, pre_step, hits)] + _hit_charges(
                hit_step, hits, walk_step, walks, first_walk == first
            )
            _flush_charges(cycles, span, charged)
        return hits

    def _hit_run_analytic(
        self, thread: SimThread, vma: VMA, tlb, plan, index: int, total: int
    ) -> int:
        """Retire a window of all-hit loads in closed form.

        Called from :meth:`_fast_forward` — repeatedly, while full
        windows keep retiring — under the analytic gates (unbounded
        horizon, no pending interference).  The window is cut at the
        first write, the first out-of-bounds page and the first access
        whose PTE is missing, re-profiling until the cuts are stable.
        What remains is applied in bulk, bit-identically to stepping the
        same accesses through :meth:`_hit_run` (the invariant
        ``tests/conformance/test_fastforward.py`` checks): the TLB
        replays the window through ``TLB.access_window`` and reports
        which accesses walked; :func:`~repro.sim.fastforward.stepped_clock`
        accumulates the CPI-scaled walk and hit adds in stepped order
        into the clock and the per-access latencies; the breakdown (and
        open span) take the loop's own ``_hit_charges``/``_flush_charges``
        flush, so new categories enter each ledger in stepped order; and
        every touched PTE gets its accessed bit.  Returns the number of
        accesses retired; 0 means "fall back to the loop".
        """
        np_writes = plan.np_writes
        if np_writes[index : index + MIN_ANALYTIC_RUN].any():
            return 0  # a write lands before the amortization floor
        np_pages = plan.np_pages
        num_pages = vma.num_pages
        start_vpn = vma.start_vpn
        limit = write_cut(np_writes, index, min(total, index + MAX_ANALYTIC_WINDOW))
        if limit - index < MIN_ANALYTIC_RUN:
            return 0
        window = np_pages[index:limit]
        oob = (window < 0) | (window >= num_pages)
        if oob.any():
            limit = index + int(oob.argmax())
        lookup = self.page_table.lookup
        while True:
            n = limit - index
            if n < MIN_ANALYTIC_RUN:
                return 0
            window = np_pages[index:limit]
            touched, first, last = window_profile(window, num_pages)
            # Pages with no PTE cut the window: the loop would break and
            # fall to the fault path there.
            distinct = touched + start_vpn
            firsts = first[touched]
            ptes = [lookup(vpn) for vpn in distinct.tolist()]
            missing = [pos for pos, pte in zip(firsts.tolist(), ptes) if pte is None]
            if not missing:
                break
            limit = index + min(missing)
        walked = tlb.access_window(window + start_vpn, distinct, firsts, last[touched])
        clock = thread.clock
        hit_step = constants.LOAD_STORE_HIT_CYCLES * clock.cpi_factor
        walk_step = constants.TLB_MISS_WALK_CYCLES * clock.cpi_factor
        clock.now, latencies = stepped_clock(clock.now, n, walked, hit_step, walk_step)
        thread.latencies.extend(latencies.tolist())
        charged = _hit_charges(
            hit_step, n, walk_step, len(walked), bool(walked) and walked[0] == 0
        )
        _flush_charges(clock.breakdown._cycles, clock._obs_span, charged)
        for pte in ptes:
            pte.accessed = True
        self.ff_runs += 1
        self.ff_hits += n
        return n

    def run_ahead_unbounded_ok(self) -> bool:
        """Certificate for an *unbounded* hit-run-ahead horizon.

        True only while no operation any thread can take mutates
        cross-thread-visible state before the next heap re-entry:

        * every page reachable through a live VMA has a guaranteed cache
          frame (``mapped pages <= capacity``), so no fault can ever
          evict — hence no PTE removal, no shootdown, no interference
          post.  Faults then only *add* entries, which commutes with
          run-ahead hits (a hit either sees the entry or breaks to the
          heap and retries in order);
        * no range was ever unmapped, shrunk, or downgraded (cached
          pages outside live VMAs would break the capacity argument);
        * nothing was ever dirtied — writeback would otherwise
          write-protect pages (and shoot down) behind readers' backs.

        Callers (the batched executor via its ``quiescent`` hook) must
        only consult this for workload phases consisting of loads and
        stores on a stable set of mappings; an mmap/msync/mprotect issued
        concurrently with an in-flight unbounded run would not be covered
        by the certificate evaluated at the run's start.
        """
        if self._ranges_disturbed or self._dirtied:
            return False
        cache = getattr(self, "cache", None)
        if cache is None:
            return False
        return self._mapped_vma_pages <= cache.capacity_pages

    def invalidate_file(self, thread: SimThread, file: BackingFile) -> int:
        """Drop every cached page of ``file`` without writeback (deletion).

        Returns the number of pages dropped.  PTEs pointing at the dropped
        pages are torn down with a shootdown, as truncation does.  The
        range-update charge up front models the truncate/unlink entry and
        keeps the batching invariant: no cross-thread-visible mutation
        within ``sync_preamble_cycles`` of the operation's start.
        """
        self._ranges_disturbed = True
        self._charge_range_update(thread)
        pages = self._pages_of_file(file.file_id)
        vpns: List[int] = []
        for page in pages:
            for vpn in page.mapped_vpns:
                self.page_table.remove(vpn)
                vpns.append(vpn)
            page.mapped_vpns.clear()
        self._shootdown(thread, vpns)
        for page in pages:
            self._drop_page(thread, page)
        return len(pages)

    def update_cached_range(self, file: BackingFile, offset: int, data: bytes) -> None:
        """Copy ``data`` into the cached pages of ``file`` it overlaps.

        Keeps the cache coherent with a write that went straight to the
        device: a stale cached page overlapping the range would serve old
        bytes to loads and, if dirty, clobber the new bytes on the next
        msync.  Pages not cached are left alone, and nothing is charged.
        """
        if not data:
            return
        pool = self._pool()
        end = offset + len(data)
        first = offset >> units.PAGE_SHIFT
        last = (end - 1) >> units.PAGE_SHIFT
        for page_index in range(first, last + 1):
            page = self._cached_page(file, page_index)
            if page is None:
                continue
            page_start = page_index << units.PAGE_SHIFT
            lo = max(offset, page_start)
            hi = min(end, page_start + units.PAGE_SIZE)
            pool.write_partial(page.frame, lo - page_start, data[lo - offset : hi - offset])

    def _pages_of_file(self, file_id: int) -> List[CachePage]:
        raise NotImplementedError

    def _drop_page(self, thread: SimThread, page: CachePage) -> None:
        raise NotImplementedError

    # -- engine-specific pieces ----------------------------------------------

    def _fault(self, thread: SimThread, vma: VMA, vpn: int, is_write: bool) -> int:
        """Handle a not-present fault; returns the frame mapped at ``vpn``."""
        raise NotImplementedError

    def _write_protect_fault(self, thread: SimThread, vma: VMA, vpn: int, pte) -> int:
        """First write to a read-only-mapped page: mark dirty, upgrade PTE."""
        raise NotImplementedError

    def _cached_page(self, file: BackingFile, file_page: int) -> Optional[CachePage]:
        raise NotImplementedError

    def _pool(self):
        """The frame pool holding this engine's cached data."""
        raise NotImplementedError

    def _shootdown(self, thread: SimThread, vpns: List[int]) -> None:
        raise NotImplementedError

    def _charge_range_update(self, thread: SimThread) -> None:
        """Cost of entering the kernel/hypervisor for mmap-class calls."""
        raise NotImplementedError

    def _advise_cost(self) -> float:
        return constants.SYSCALL_CYCLES

    # -- shared writeback helper ----------------------------------------------

    @staticmethod
    def _merge_runs(pages: List[CachePage]) -> List[List[CachePage]]:
        """Group device-offset-sorted pages into contiguous runs."""
        runs: List[List[CachePage]] = []
        for page in pages:
            if (
                runs
                and page.device_offset
                == runs[-1][-1].device_offset + units.PAGE_SIZE
            ):
                runs[-1].append(page)
            else:
                runs.append([page])
        return runs

    def _write_back_pages(
        self,
        thread: SimThread,
        pages: List[CachePage],
        sync: bool,
        category: str = "writeback",
    ) -> int:
        """Write dirty pages (sorted by device offset), merging runs.

        Returns the number of pages written.  ``sync`` blocks the thread
        until the last write completes (msync semantics); otherwise writes
        are queued and only CPU submission cost is paid now.
        """
        pool = self._pool()
        completions: List[float] = []
        with TRACER.span("writeback.io", thread.clock):
            for run in self._merge_runs(pages):
                device: BlockDevice = run[0].file.device
                data = b"".join(pool.read(page.frame) for page in run)
                offset = run[0].device_offset
                CRASH.point(f"{self.name}.writeback.run")
                completion = with_retries(
                    thread.clock,
                    lambda device=device, offset=offset, data=data: device.submit_async(
                        thread.clock, offset, len(data), is_write=True, data=data
                    ),
                    category,
                    self.retry_policy,
                )
                thread.clock.charge(category + ".submit", 400 + 30 * len(run))
                completions.append(completion)
                fid = run[0].file.file_id
                self._wb_inflight[fid] = max(
                    self._wb_inflight.get(fid, 0.0), completion
                )
            if sync and completions:
                thread.clock.wait_until(max(completions), "idle.io.writeback")
                CRASH.point(f"{self.name}.writeback.sync")
        return len(pages)

    def _drain_inflight(self, thread: SimThread, file: BackingFile) -> None:
        """Block until every queued async writeback of ``file`` completes.

        Background writeback (``sync=False``) marks pages clean as soon
        as the device accepts the command, so by the time a durability
        call (msync/fsync) scans for dirty pages those writes are
        invisible — yet they have not completed.  Returning before they
        do would report partially-acknowledged writes as durable.
        """
        done_at = self._wb_inflight.pop(file.file_id, 0.0)
        if done_at > thread.clock.now:
            thread.clock.wait_until(done_at, "idle.io.writeback")
