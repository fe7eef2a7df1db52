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
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common import constants, units
from repro.common.errors import ProtectionFault, SegmentationFault
from repro.devices.block import BlockDevice
from repro.fault.crash import CRASH
from repro.fault.retry import RetryPolicy, with_retries
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
    window_profile,
    write_cut,
)


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
    #: True *and* a run's gates hold (unbounded horizon, integer clock, no
    #: pending interference, vectorized plan), ``hit_run`` retires whole
    #: all-hit windows in closed form and ``_ensure_mapped`` may take the
    #: engine's fused fault path.  Off by default: unbatched mode stays a
    #: pristine per-op reference, and hand-built stacks opt in explicitly.
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
        self.hit_runs = 0          # batched-mode runs retired via hit_run
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
        chunks = []
        for page_offset, in_page, take in self._split(mapping, offset, nbytes):
            frame = self._ensure_mapped(thread, mapping, page_offset, is_write=False)
            chunks.append(self._pool().read_partial(frame, in_page, take))
        return b"".join(chunks)

    def store(self, thread: SimThread, mapping: Mapping, offset: int, data: bytes) -> None:
        """Memory-write through the mapping; faults for dirty tracking."""
        written = 0
        for page_offset, in_page, take in self._split(mapping, offset, len(data)):
            frame = self._ensure_mapped(thread, mapping, page_offset, is_write=True)
            self._pool().write_partial(frame, in_page, data[written : written + take])
            written += take

    def _split(
        self, mapping: Mapping, offset: int, nbytes: int
    ) -> Iterable[Tuple[int, int, int]]:
        if offset < 0 or nbytes < 0 or offset + nbytes > mapping.size_bytes:
            raise SegmentationFault(
                offset, f"access [{offset}, +{nbytes}) outside mapping"
            )
        pos = offset
        remaining = nbytes
        while remaining > 0:
            in_page = pos & (units.PAGE_SIZE - 1)
            take = min(remaining, units.PAGE_SIZE - in_page)
            yield (pos - in_page, in_page, take)
            pos += take
            remaining -= take

    def _ensure_mapped(
        self, thread: SimThread, mapping: Mapping, page_offset: int, is_write: bool
    ) -> int:
        """The hardware access protocol for one page; returns its frame."""
        if not mapping.active:
            raise SegmentationFault(page_offset, "access to unmapped region")
        if is_write and not mapping.vma.prot & PROT_WRITE:
            raise ProtectionFault(page_offset, "write to read-only mapping")
        self.machine.absorb_interference(thread)
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
        elif self.fastforward:
            # Fused fault fast path (read faults only): the engine may
            # replay its whole fault protocol without span/call overhead,
            # bit-identically; None means "not eligible, take the real
            # path".  ``ff_faults`` on the subclass counts engagements.
            frame = self._fault_fast(thread, mapping.vma, vpn)
            if frame is not None:
                return frame
        with TRACER.span("fault", thread.clock):
            return self._fault(thread, mapping.vma, vpn, is_write)

    def load_op_fast(self, thread: SimThread, mapping: Mapping, page: int, in_page: int) -> bool:
        """Fused single-page slow-path read op (fast-forward mode only).

        Replays exactly what ``load`` does for one in-bounds, single-page,
        8-byte read — interference absorb, PTE probe, TLB access and hit
        charge (or the fault protocol), latency record — without the
        span/split/join machinery.  The loaded bytes are not materialized:
        the microbenchmark discards them and ``read_partial`` is pure, so
        skipping it is state-identical.  Returns False (caller must use
        the generic path) without mutating anything when a gate fails.
        """
        clock = thread.clock
        if (
            not mapping.active
            or clock.cpi_factor != 1.0
            or clock._obs_span is not None
            or TRACER.enabled
        ):
            return False
        vma = mapping.vma
        if not 0 <= page < vma.num_pages:
            return False
        start = clock.now
        machine = self.machine
        interference = machine.interference
        if thread.core in interference._pending:
            interference.absorb(thread.core, clock)
        vpn = vma.start_vpn + page
        pte = self.page_table._entries.get(vpn)
        if pte is None:
            self.faults += 1
            frame = self._fault_fast(thread, vma, vpn)
            if frame is None:
                with TRACER.span("fault", clock):
                    self._fault(thread, vma, vpn, False)
        else:
            # Pure hardware hit reached via the slow path (run horizon
            # already crossed): TLB access + hit charge, fused.
            tlb = machine.tlbs[thread.core]
            entries = tlb._entries
            now = clock.now
            cycles = clock.breakdown._cycles
            if vpn in entries:
                entries.move_to_end(vpn)
                tlb.hits += 1
            else:
                tlb.misses += 1
                now += constants.TLB_MISS_WALK_CYCLES
                cycles["tlb.miss_walk"] += float(constants.TLB_MISS_WALK_CYCLES)
                entries[vpn] = None
                entries.move_to_end(vpn)
                if len(entries) > tlb.capacity:
                    entries.popitem(last=False)
            now += constants.LOAD_STORE_HIT_CYCLES
            cycles["app.access"] += float(constants.LOAD_STORE_HIT_CYCLES)
            clock.now = now
            pte.accessed = True
        thread.latencies._samples.append(clock.now - start)
        thread.latencies._sorted_cache = None
        thread.ops_completed += 1
        return True

    def hit_run(
        self,
        thread: SimThread,
        mapping: Mapping,
        accesses,
        index: int,
        horizon: float,
        write_data: bytes,
    ) -> int:
        """Retire a run of consecutive pure-hit accesses in one step.

        ``accesses`` is a plan of three parallel sequences
        ``(pages, in_page_offsets, is_write_flags)``, one entry per
        access; the run starts at ``index`` and consumes while each
        access starts at or before ``horizon`` and hits: PTE
        present and writable when needed.  The charge sequence per access
        is call-for-call identical to the hit branch of
        :meth:`_ensure_mapped` (absorb interference, TLB access, hit
        charge), so a batched run is cycle- and state-identical to the
        same accesses retired one executor step at a time — the property
        the ``tests/conformance`` tier checks.  Per-access latencies are
        recorded as in unbatched mode; the run itself is one trace span at
        most, not one per access.

        Returns the number of accesses consumed (0 if the first one needs
        the fault path — the caller falls back to ``load``/``store``).
        """
        if not mapping.active:
            return 0
        vma = mapping.vma
        vma_writable = bool(vma.prot & PROT_WRITE)
        num_pages = vma.num_pages
        start_vpn = vma.start_vpn
        clock = thread.clock
        pages_seq, offsets_seq, writes_seq = accesses
        # Early reject before the per-run setup below: miss-dominated
        # cells call this once per op and consume nothing, so the
        # zero-consumed path must cost no more than these few checks
        # (they mirror the first loop iteration exactly).
        if clock.now > horizon:
            return 0
        page = pages_seq[index]
        is_write = writes_seq[index]
        if (is_write and not vma_writable) or not 0 <= page < num_pages:
            return 0
        pte = self.page_table._entries.get(start_vpn + page)
        if pte is None or (is_write and not pte.writable):
            return 0
        machine = self.machine
        tlb = machine.tlb_of(thread)
        lookup = self.page_table.lookup
        pool = self._pool()
        consumed = 0
        total = len(pages_seq)
        if clock.cpi_factor == 1.0 and clock._obs_span is None:
            # Slim path: with CPI 1.0 every per-op charge is an integer
            # float, so batching the breakdown updates (one dict write per
            # run instead of per op) is bit-exact; with no open span the
            # tracer hook in ``charge`` is a no-op we can skip.  The clock
            # trajectory itself still advances per op, so recorded
            # latencies are identical floats.
            entries = tlb._entries
            move_to_end = entries.move_to_end
            tlb_capacity = tlb.capacity
            interference = machine.interference
            pending = interference._pending
            core = thread.core
            append = thread.latencies._samples.append
            pte_get = self.page_table._entries.get
            hit_cost = constants.LOAD_STORE_HIT_CYCLES
            walk_cost = constants.TLB_MISS_WALK_CYCLES
            now = clock.now
            walks = 0
            if (
                self.fastforward
                and horizon == math.inf
                and total - index >= MIN_ANALYTIC_RUN
                and core not in pending
                and num_pages <= MAX_ANALYTIC_PAGES
                and getattr(accesses, "np_pages", None) is not None
                and now.is_integer()
            ):
                # Analytic fast-forward: with an unbounded horizon the
                # whole remaining all-hit window can retire in closed form
                # (see ``repro.sim.fastforward``).  The miss-rate model
                # skips the setup when steady-state eviction would cut
                # windows below the amortization floor anyway.
                cache = getattr(self, "cache", None)
                if cache is not None and expected_hit_run_length(
                    self._mapped_vma_pages, cache.capacity_pages
                ) >= MIN_ANALYTIC_RUN:
                    # Each call retires at most MAX_ANALYTIC_WINDOW
                    # accesses (profiling cost stays bounded); loop while
                    # full windows keep retiring so long runs never fall
                    # to the per-op loop.  Every gate above is preserved
                    # across iterations: charges are integer (the clock
                    # stays integer), no other thread runs inside this
                    # call (pending interference cannot appear), and the
                    # plan arrays don't change.
                    while total - index >= MIN_ANALYTIC_RUN:
                        retired = self._hit_run_analytic(
                            thread, vma, tlb, accesses, index, total
                        )
                        if not retired:
                            break
                        index += retired
                        consumed += retired
                    now = clock.now
            run_start = consumed
            while index < total and now <= horizon:
                page = pages_seq[index]
                is_write = writes_seq[index]
                if (is_write and not vma_writable) or not 0 <= page < num_pages:
                    break
                vpn = start_vpn + page
                pte = pte_get(vpn)
                if pte is None or (is_write and not pte.writable):
                    break
                start = now
                if core in pending:
                    clock.now = now
                    interference.absorb(core, clock)
                    now = clock.now
                if vpn in entries:
                    move_to_end(vpn)
                    tlb.hits += 1
                else:
                    tlb.misses += 1
                    now += walk_cost
                    walks += 1
                    entries[vpn] = None
                    if len(entries) > tlb_capacity:
                        entries.popitem(last=False)
                now += hit_cost
                pte.accessed = True
                if is_write:
                    pool.write_partial(pte.frame, offsets_seq[index], write_data)
                append(now - start)
                index += 1
                consumed += 1
            clock.now = now
            loop_n = consumed - run_start
            if loop_n:
                cycles = clock.breakdown._cycles
                cycles["app.access"] += hit_cost * loop_n
                if walks:
                    cycles["tlb.miss_walk"] += walk_cost * walks
            if consumed:
                thread.latencies._sorted_cache = None
                thread.ops_completed += consumed
        else:
            record_op = thread.record_op
            while index < total and clock.now <= horizon:
                page = pages_seq[index]
                is_write = writes_seq[index]
                if (is_write and not vma_writable) or not 0 <= page < num_pages:
                    break
                vpn = start_vpn + page
                pte = lookup(vpn)
                if pte is None or (is_write and not pte.writable):
                    # Needs the fault path: leave the whole op (including
                    # its interference absorb) to the caller's slow path so
                    # its recorded latency matches unbatched execution.
                    break
                start = clock.now
                machine.absorb_interference(thread)
                tlb.access(vpn, clock)
                clock.charge("app.access", constants.LOAD_STORE_HIT_CYCLES)
                pte.accessed = True
                if is_write:
                    pool.write_partial(pte.frame, offsets_seq[index], write_data)
                record_op(start)
                index += 1
                consumed += 1
        if consumed:
            self.hit_runs += 1
            self.batched_hits += consumed
        return consumed

    def _hit_run_analytic(
        self, thread: SimThread, vma: VMA, tlb, plan, index: int, total: int
    ) -> int:
        """Retire a window of all-hit loads in closed form.

        Called from the slim branch of :meth:`hit_run` — repeatedly,
        while full windows keep retiring — under the analytic gates
        (unbounded horizon, integer
        clock, no pending interference, vectorized plan, CPI 1.0, tracer
        idle).  The window is cut at the first write, the first
        out-of-bounds page, the first access whose PTE is missing, and
        the first access that would overflow the TLB, re-profiling until
        the cuts are stable; what remains is applied in bulk — cycle
        total, per-stage breakdown, per-access latencies, TLB counters
        and final recency order, PTE accessed bits — bit-identically to
        stepping the same accesses through the loop (the invariant
        ``tests/conformance/test_fastforward.py`` checks).  Returns the
        number of accesses retired; 0 means "fall back to the loop".
        """
        np_writes = plan.np_writes
        if np_writes is not None and np_writes[index : index + MIN_ANALYTIC_RUN].any():
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
        pte_entries = self.page_table._entries
        entries = tlb._entries
        while True:
            n = limit - index
            if n < MIN_ANALYTIC_RUN:
                return 0
            window = np_pages[index:limit]
            touched, first, last = window_profile(window, num_pages)
            # One membership pass over the distinct pages classifies the
            # window: pages with no PTE cut it (the loop would break and
            # fall to the fault path there); pages absent from the TLB
            # will each insert once (a walk) at their first occurrence.
            miss_cut = n
            new_firsts = []
            for page in touched.tolist():
                vpn = start_vpn + page
                if vpn not in pte_entries:
                    pos = int(first[page])
                    if pos < miss_cut:
                        miss_cut = pos
                elif vpn not in entries:
                    new_firsts.append(int(first[page]))
            if miss_cut < n:
                limit = index + miss_cut
                continue
            room = tlb.capacity - len(entries)
            if len(new_firsts) > room:
                # The (room+1)-th distinct new page would evict a TLB
                # entry; the closed form assumes no eviction, so end the
                # window just before that access and re-profile.
                new_firsts.sort()
                limit = index + new_firsts[room]
                continue
            break
        clock = thread.clock
        now = clock.now
        walks = len(new_firsts)
        hit_cost = constants.LOAD_STORE_HIT_CYCLES
        walk_cost = constants.TLB_MISS_WALK_CYCLES
        add = hit_cost * n + walk_cost * walks
        if now + add >= 2.0**53:
            return 0  # stepped float adds would no longer be exact
        samples = thread.latencies._samples
        fill_start = len(samples)
        samples.extend([float(hit_cost)] * n)
        if walks:
            walk_lat = float(hit_cost + walk_cost)
            for pos in new_firsts:
                samples[fill_start + pos] = walk_lat
        cycles = clock.breakdown._cycles
        cycles["app.access"] += float(hit_cost * n)
        if walks:
            cycles["tlb.miss_walk"] += float(walk_cost * walks)
        tlb.hits += n - walks
        tlb.misses += walks
        move_to_end = entries.move_to_end
        pte_get = pte_entries.get
        # Stepped execution leaves touched pages at the TLB's recency
        # tail ordered by *last* occurrence (hits move-to-end, first
        # misses insert at the end); replay exactly that order.
        order = last[touched].argsort()
        for page in touched[order].tolist():
            vpn = start_vpn + page
            pte_get(vpn).accessed = True
            if vpn in entries:
                move_to_end(vpn)
            else:
                entries[vpn] = None
        clock.now = now + add
        self.ff_runs += 1
        self.ff_hits += n
        return n

    def _fault_fast(self, thread: SimThread, vma: VMA, vpn: int):
        """Fused read-fault fast path hook; None = take the real path.

        Subclasses with a fused replay of their fault protocol (see
        ``AquilaEngine._fault_fast``) override this.  Implementations
        must be charge- and state-identical to ``_fault`` for the cases
        they accept, and must return None for anything they cannot prove
        identical (tracing enabled, CPI scaling, device fault injection,
        readahead, EPT translation, ...).
        """
        return None

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
