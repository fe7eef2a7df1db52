"""The Aquila mmio engine (paper Sections 3-4): the primary contribution.

Everything on the common path happens in VMX non-root ring 0, collocated
with the application:

* page faults are delivered as 552-cycle exceptions, not 1287-cycle traps;
* the faulting address is validated in a RadixVM-style radix tree with
  per-entry locks (no ``mmap_sem``);
* cached pages live in a lock-free hash table (no tree lock);
* frames come from the two-level (core/NUMA) batched freelist;
* when the freelist runs dry, the faulting thread synchronously evicts a
  *batch* of cold pages, writes dirty victims in device-offset order
  (merged into large I/Os from the per-core red-black trees) and performs
  a *single batched TLB shootdown* for the whole batch;
* device access never leaves non-root ring 0: DAX memcpy for pmem, SPDK
  for NVMe (host-syscall I/O is available for comparison — Figure 8(c)).

Interaction with the hypervisor happens only for mmap-class range updates
and dynamic cache resizing (EPT granules) — the uncommon path.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common import constants, units
from repro.common.errors import OutOfMemoryError, SegmentationFault, TransientDeviceError
from repro.cache.aquila_cache import AquilaCache
from repro.cache.base import CachePage
from repro.devices.io_engines import DaxIO, IOPath
from repro.hw.page_table import PTE
from repro.fault.crash import CRASH
from repro.hw.ept import EPT
from repro.hw.machine import Machine
from repro.hw.vmx import ExecutionDomain, VMXCostModel
from repro.mmio.engine import Mapping, MmioEngine
from repro.mmio.files import BackingFile
from repro.mmio.vma import MADV_SEQUENTIAL, VMA, AquilaVMAStore
from repro.obs import TRACER
from repro.sim.executor import SimThread
from repro.sim.locks import CacheLineTimeline

#: Charge constants pre-coerced to float once: the fused replay adds them
#: to breakdown buckets tens of thousands of times per run, and a float()
#: per add is pure interpreter overhead (the values are identical).
_F_TRAP = float(constants.TRAP_AQUILA_CYCLES)
_F_VMA_LOOKUP = float(constants.AQUILA_VMA_LOOKUP_CYCLES)
_F_CACHE_LOOKUP = float(constants.AQUILA_CACHE_LOOKUP_CYCLES)
_F_LRU_UPDATE = float(constants.AQUILA_LRU_UPDATE_CYCLES)
_F_FREELIST_OP = float(constants.FREELIST_OP_CYCLES)
_F_HASH_INSERT = float(constants.HASHTABLE_INSERT_CYCLES)
_F_ATOMIC = float(constants.LOCK_TRANSFER_CYCLES)
_F_PTE_INSTALL = float(constants.AQUILA_PTE_INSTALL_CYCLES)
_F_FAULT_MISC = float(constants.AQUILA_FAULT_MISC_CYCLES)


class AquilaEngine(MmioEngine):
    """Customizable mmio in non-root ring 0."""

    name = "aquila"

    #: Batching-invariant audit (see ``repro.sim.executor``): the earliest
    #: cross-thread-visible interaction on any Aquila operation is behind
    #: the 552-cycle fault entry, the mmap-class vmcall, or the msync
    #: entry + dirty-tree scan (100 + 220) — whichever is smallest.
    sync_preamble_cycles = 100 + constants.AQUILA_MSYNC_SCAN_CYCLES

    #: The fused-path counters show in telemetry whether the fast path ran.
    METRIC_FIELDS = {
        **MmioEngine.METRIC_FIELDS,
        "ff_faults": "ff_faults",
        "ff_evictions": "ff_evictions",
    }

    def __init__(
        self,
        machine: Machine,
        cache_pages: int,
        io_path: IOPath,
        eviction_batch: int = constants.EVICTION_BATCH_PAGES,
        shootdown_batch: int = constants.TLB_SHOOTDOWN_BATCH,
        freelist_move_batch: int = constants.FREELIST_MOVE_BATCH_PAGES,
        freelist_core_threshold: int = constants.FREELIST_CORE_THRESHOLD_PAGES,
        readahead_pages: int = 0,
        ept: Optional[EPT] = None,
    ) -> None:
        super().__init__(
            machine,
            AquilaVMAStore(),
            VMXCostModel(ExecutionDomain.NONROOT_RING0),
        )
        topology = machine.topology
        self.cache = AquilaCache(
            cache_pages,
            num_cores=topology.num_hw_threads,
            core_of_numa_node=topology.numa_node_of,
            eviction_batch=eviction_batch,
            freelist_move_batch=freelist_move_batch,
            freelist_core_threshold=freelist_core_threshold,
        )
        self.io_path = io_path
        # One 4 KiB DAX copy costs the same every time (pure function of
        # the copy strategy); precompute it for the fused fault replay.
        self._ff_copy_cost = (
            io_path.fpu.copy_cost_cycles(units.PAGE_SIZE)
            if isinstance(io_path, DaxIO)
            else 0.0
        )
        self.shootdown_batch = shootdown_batch
        self.readahead_pages = readahead_pages
        self._shootdowns = machine.make_shootdown_controller("aquila")
        self.ept = ept
        if self.ept is not None:
            self.ept.grant(0, cache_pages * units.PAGE_SIZE)
        self.eviction_batches = 0
        self.readahead_aborted = 0
        self.ff_faults = 0      # faults replayed by the fused fast path
        self.ff_evictions = 0   # eviction batches replayed by the fused path

    # -- engine plumbing ------------------------------------------------------

    def _pool(self):
        return self.cache.pool

    def _cached_page(self, file: BackingFile, file_page: int) -> Optional[CachePage]:
        return self.cache.get_nocost(file, file_page)

    def _shootdown(self, thread: SimThread, vpns: List[int]) -> None:
        # Batched: one shootdown call per batch of pages (Section 4.1).
        for start in range(0, len(vpns), self.shootdown_batch):
            self._shootdowns.shootdown(
                thread.clock, thread.core, vpns[start : start + self.shootdown_batch]
            )

    def _charge_range_update(self, thread: SimThread) -> None:
        # mmap-class operations interact with the hypervisor (Section 3.4
        # and Figure 3): one vmcall, off the common path.
        self.vmx.syscall(thread.clock, "vmcall.mmap")

    def _pages_of_file(self, file_id: int):
        return self.cache.pages_of_file(file_id)

    def _drop_page(self, thread: SimThread, page: CachePage) -> None:
        if page.dirty:
            self.cache.clear_dirty(thread.clock, page)
        self.cache.remove(thread.clock, thread.core, page)

    def _advise_cost(self) -> float:
        # madvise is intercepted in non-root ring 0 (Section 4.4): a plain
        # function call, no domain switch.
        return 50

    # -- fault handling ---------------------------------------------------------

    def _fault(self, thread: SimThread, vma: VMA, vpn: int, is_write: bool) -> int:
        clock = thread.clock
        self.vmx.fault_entry(clock)   # 552-cycle non-root ring 0 exception
        # No sub-spans around the vma/cache lookups: they are cheap, run on
        # every fault, and their cycles stay visible as charge categories
        # on the enclosing "fault" span.
        checked = self.vmas.lookup(clock, vpn)   # radix validity + entry lock
        if checked is None or checked.vma_id != vma.vma_id:
            raise SegmentationFault(vpn << units.PAGE_SHIFT)
        file = vma.file
        file_page = vma.file_page_of(vpn)

        page = self.cache.lookup(clock, file, file_page)
        if page is None:
            self.major_faults += 1
            page = self._read_in(thread, vma, file, file_page)
        else:
            self.minor_faults += 1

        writable = is_write
        pte = self.page_table.install(vpn, page.frame, writable=writable)
        page.mapped_vpns.add(vpn)
        clock.charge("fault.pte_install", constants.AQUILA_PTE_INSTALL_CYCLES)
        clock.charge("fault.misc", constants.AQUILA_FAULT_MISC_CYCLES)
        self.machine.tlb_of(thread).fill(vpn)

        if is_write:
            # Write fault: mark dirty during the initial fault (Section 3.2).
            pte.dirty = True
            self.cache.mark_dirty(clock, thread.core, page)
        return page.frame

    def _write_protect_fault(self, thread: SimThread, vma: VMA, vpn: int, pte) -> int:
        """Read-only page written: just mark dirty (Section 3.2)."""
        clock = thread.clock
        self.vmx.fault_entry(clock)
        self.vmas.lookup(clock, vpn)
        file_page = vma.file_page_of(vpn)
        page = self.cache.get_nocost(vma.file, file_page)
        if page is None:
            raise SegmentationFault(vpn << units.PAGE_SHIFT, "dirty fault on evicted page")
        self.cache.mark_dirty(clock, thread.core, page)
        pte.writable = True
        pte.dirty = True
        clock.charge("fault.pte_install", constants.AQUILA_PTE_INSTALL_CYCLES // 2)
        return page.frame

    # -- fused fast-forward fault replay ---------------------------------------

    def _fault_fast(self, thread: SimThread, vma: VMA, vpn: int) -> Optional[int]:
        """Fused replay of the clean read-fault protocol (fast-forward).

        Performs exactly the state transitions and cycle charges of
        ``_fault(is_write=False)`` — trap entry, VMA radix check with its
        entry-line bookkeeping, hash lookup, miss read-in, PTE install,
        TLB insert — but as straight-line code, skipping the per-charge
        call machinery.  Anything with nontrivial timing semantics stays a
        real call with the clock synced: freelist allocation, the DAX media
        read (token-bucket admission, fractional waits), hash-table insert
        (striped atomic timeline), and TLB shootdowns inside eviction.

        Returns None — take the unfused path — whenever any modeled
        behavior could differ: scaled CPI (SMT), an open observation span,
        active tracing, EPT translation, a non-DAX I/O path, an armed
        device fault plan, or sequential readahead.  The conformance tier
        proves the replay bit-exact against both reference schedulers.
        """
        clock = thread.clock
        io_path = self.io_path
        if (
            clock.cpi_factor != 1.0
            or clock._obs_span is not None
            or TRACER.enabled
            or self.ept is not None
            or self.vmx.domain is not ExecutionDomain.NONROOT_RING0
            or not isinstance(io_path, DaxIO)
            or io_path.device.faults is not None
            or (vma.advice == MADV_SEQUENTIAL and self.readahead_pages)
        ):
            return None
        now = clock.now
        cycles = clock.breakdown._cycles
        # vmx.fault_entry: 552-cycle non-root ring 0 exception delivery.
        self.vmx.traps += 1
        now += constants.TRAP_AQUILA_CYCLES
        cycles["fault.trap"] += _F_TRAP
        # vmas.lookup: radix validity check behind the per-entry lock line
        # (zero-cost atomic: the line advances but never waits or charges).
        # The flat mirror resolves the same entry the radix walk would.
        vmas = self.vmas
        vmas.lookups += 1
        now += constants.AQUILA_VMA_LOOKUP_CYCLES
        cycles["fault.vma_lookup"] += _F_VMA_LOOKUP
        lines = vmas._entry_locks._lines
        line = lines[hash(vpn) % len(lines)]
        line.operations += 1
        line._free_at = now
        checked = vmas._flat.get(vpn)
        if checked is None or checked.vma_id != vma.vma_id:
            clock.now = now
            raise SegmentationFault(vpn << units.PAGE_SHIFT)
        file = vma.file
        # file_page_of, minus the containment recheck the radix entry
        # just proved.
        file_page = vma.file_start_page + (vpn - vma.start_vpn)
        # cache.lookup: wait-free hash probe.
        cache = self.cache
        cache.table.lookups += 1
        now += constants.AQUILA_CACHE_LOOKUP_CYCLES
        cycles["cache.hash.lookup"] += _F_CACHE_LOOKUP
        page = cache.table._map.get((file.file_id, file_page))
        if page is not None:
            cache.hits += 1
            cache.lru.touch(page.key)
            now += constants.AQUILA_LRU_UPDATE_CYCLES
            cycles["fault.lru"] += _F_LRU_UPDATE
            self.minor_faults += 1
        else:
            cache.misses += 1
            self.major_faults += 1
            # _read_in, fused.  freelist.allocate: one lock-free op charge
            # per attempt; the batched node refill (rare) runs for real.
            freelist = cache.freelist
            core = thread.core
            core_queue = freelist._core_queues[core]
            frame = None
            for attempt in (0, 1):
                now += constants.FREELIST_OP_CYCLES
                cycles["cache.freelist"] += _F_FREELIST_OP
                if not core_queue:
                    clock.now = now
                    freelist._refill_from_nodes(clock, core)
                    now = clock.now
                if core_queue:
                    frame = core_queue.popleft()
                    freelist.pool.mark_allocated(frame)
                    freelist.allocations += 1
                    break
                if attempt:
                    raise OutOfMemoryError("eviction freed no frames")
                clock.now = now
                if not self._evict_batch_ff(thread):
                    self._evict_batch(thread)
                now = clock.now
            # DaxIO.read minus the retry wrapper (a first attempt is free
            # and, with no fault plan armed, always succeeds): media
            # admission runs for real, the copy and membw wait are fused.
            device = io_path.device
            offset = file.device_offset(file_page)
            media = device.media
            media_done = (
                media.admit(now, units.PAGE_SIZE) if media is not None else 0.0
            )
            fpu = io_path.fpu
            fpu.copies += 1
            if fpu.use_simd:
                fpu.state_saves += 1
            copy_cost = self._ff_copy_cost
            now += copy_cost
            cycles["fault.io.dax"] += copy_cost
            if media_done > now:
                cycles["idle.membw"] += media_done - now
                now = media_done
            device.reads += 1
            device.bytes_read += units.PAGE_SIZE
            # pool.write minus its recopy (an aligned store.read returns
            # the device's immutable page object, the same bytes the
            # copying path would store).
            cache.pool._data[frame] = device.store.read(offset, units.PAGE_SIZE)
            # cache.insert, fused: hash CAS install + LRU touch.
            page = CachePage(file, file_page, frame)
            key = page.key
            table = cache.table
            now += constants.HASHTABLE_INSERT_CYCLES
            cycles["cache.hash.insert"] += float(constants.HASHTABLE_INSERT_CYCLES)
            stripes = table._stripes._lines
            line = stripes[hash(key) % len(stripes)]
            line.operations += 1
            free_at = line._free_at
            atomic_cost = constants.LOCK_TRANSFER_CYCLES
            if free_at > now:
                bound = now + atomic_cost * CacheLineTimeline.MAX_QUEUE
                target = free_at if free_at < bound else bound
                waited = target - now
                cycles["idle.atomic"] += waited
                line.total_wait_cycles += waited
                now = target
            line._free_at = now + atomic_cost
            now += atomic_cost
            cycles["atomic.op"] += float(atomic_cost)
            existing = table._map.get(key)
            if existing is not None:
                # Lost the install race (unreachable in a sequential
                # replay, kept for fidelity): use the winner's page and
                # recycle the speculative frame.
                page = existing
            else:
                table._map[key] = page
                table.inserts += 1
                cache._pages[key] = page
                cache.lru.touch(key)
                now += constants.AQUILA_LRU_UPDATE_CYCLES
                cycles["fault.lru"] += float(constants.AQUILA_LRU_UPDATE_CYCLES)
            if page.frame != frame:
                clock.now = now
                freelist.free(clock, core, frame)
                now = clock.now
        # page_table.install + tlb._insert, fused (same objects, same
        # counters, same LRU motion).
        page_table = self.page_table
        page_table._entries[vpn] = PTE(frame=page.frame, accessed=True)
        page_table.installs += 1
        page.mapped_vpns.add(vpn)
        now += constants.AQUILA_PTE_INSTALL_CYCLES
        cycles["fault.pte_install"] += _F_PTE_INSTALL
        now += constants.AQUILA_FAULT_MISC_CYCLES
        cycles["fault.misc"] += _F_FAULT_MISC
        clock.now = now
        tlb = self.machine.tlbs[thread.core]
        entries = tlb._entries
        entries[vpn] = None
        entries.move_to_end(vpn)
        if len(entries) > tlb.capacity:
            entries.popitem(last=False)
        self.ff_faults += 1
        return page.frame

    def _evict_batch_ff(self, thread: SimThread) -> bool:
        """Fused clean-eviction batch: fast-forward's steady-state path.

        Replays ``_evict_batch`` charge-for-charge for the common
        out-of-memory regime — a full batch of *clean* victims — fusing
        the per-victim select / hash-remove / freelist bookkeeping into
        local arithmetic.  The clock still steps through every charge in
        the real order (bulk float adds are only used for breakdown
        buckets that provably hold integer sums), stripe-line waits are
        replayed individually (they can be fractional), and the TLB
        shootdown runs for real.

        Returns False — caller must run the real ``_evict_batch`` — when
        any victim is dirty (writeback has real I/O semantics) or a crash
        point is armed.  The pre-scan is cost- and mutation-free, so
        falling back is always safe.
        """
        cache = self.cache
        if cache.partition is not None:
            # A QoS partition reorders victim selection away from the
            # plain LRU walk this fused batch inlines; take the real
            # ``_evict_batch`` -> ``pick_victims`` path instead.
            return False
        pages = cache._pages
        count = cache.eviction_batch
        victims = []
        for key in cache.lru.cold_keys():
            page = pages.get(key)
            if page is not None:
                if page.dirty:
                    return False
                victims.append(page)
                if len(victims) >= count:
                    break
        if not victims or CRASH.active:
            return False

        clock = thread.clock
        self.eviction_batches += 1
        now = clock.now
        cycles = clock.breakdown._cycles
        n = len(victims)
        # pick_victims: one LRU-select charge per victim.  The clock is
        # stepped per charge (bit-exact against fractional bases); the
        # bucket takes one bulk add (integer-valued sum, exact).
        select = constants.LRU_VICTIM_SELECT_CYCLES
        for _ in range(n):
            now += select
        cycles["evict.select"] += float(select * n)
        # PTE teardown for every mapping of every victim (cost-free in the
        # model) and the vpn list for the batched shootdown.
        entries = self.page_table._entries
        removals = 0
        vpns: List[int] = []
        for page in victims:
            for vpn in page.mapped_vpns:
                if entries.pop(vpn, None) is not None:
                    removals += 1
                vpns.append(vpn)
            page.mapped_vpns.clear()
        self.page_table.removals += removals
        clock.now = now
        self._shootdown(thread, vpns)
        now = clock.now
        # cache.remove per victim: hash remove (charge + striped atomic),
        # page-map/LRU drop, freelist free with batched spill.
        table = cache.table
        tmap = table._map
        stripes = table._stripes._lines
        nstripes = len(stripes)
        freelist = cache.freelist
        pool = freelist.pool
        core = thread.core
        core_queue = freelist._core_queues[core]
        threshold = freelist.core_threshold
        hash_remove = constants.HASHTABLE_REMOVE_CYCLES
        atomic_cost = constants.LOCK_TRANSFER_CYCLES
        free_cost = constants.FREELIST_OP_CYCLES
        queue_bound = atomic_cost * CacheLineTimeline.MAX_QUEUE
        removed = 0
        for page in victims:
            key = page.key
            now += hash_remove
            line = stripes[hash(key) % nstripes]
            line.operations += 1
            free_at = line._free_at
            if free_at > now:
                bound = now + queue_bound
                target = free_at if free_at < bound else bound
                waited = target - now
                cycles["idle.atomic"] += waited
                line.total_wait_cycles += waited
                now = target
            line._free_at = now + atomic_cost
            now += atomic_cost
            if tmap.pop(key, None) is not None:
                removed += 1
            pages.pop(key, None)
            pool.mark_free(page.frame)
            now += free_cost
            core_queue.append(page.frame)
            if len(core_queue) > threshold:
                clock.now = now
                freelist._spill_to_node(clock, core)
                now = clock.now
        table.removes += removed
        freelist.frees += n
        cache.evictions += n
        cycles["cache.hash.remove"] += float(hash_remove * n)
        cycles["atomic.op"] += float(atomic_cost * n)
        cycles["cache.freelist"] += float(free_cost * n)
        cache.lru.remove_batch([page.key for page in victims])
        clock.now = now
        self.ff_evictions += 1
        return True

    # -- miss path -------------------------------------------------------------

    def _read_in(
        self, thread: SimThread, vma: VMA, file: BackingFile, file_page: int
    ) -> CachePage:
        clock = thread.clock
        with TRACER.span("fault.alloc", clock):
            frame = self._allocate_with_eviction(thread)
        if self.ept is not None:
            # First touch of a fresh cache granule faults in EPT (1 GB
            # granules make this essentially free; Section 3.5).
            self.ept.translate(frame * units.PAGE_SIZE, clock)
        with TRACER.span("fault.io", clock):
            data = self.io_path.read(
                clock, file.device_offset(file_page), units.PAGE_SIZE, "fault.io"
            )
            self.cache.pool.write(frame, data)
        page = self.cache.insert(clock, file, file_page, frame)
        if page.frame != frame:
            # Lost the install race; recycle the speculative frame.
            self.cache.freelist.free(clock, thread.core, frame)
        if vma.advice == MADV_SEQUENTIAL and self.readahead_pages:
            with TRACER.span("fault.readahead", clock):
                self._readahead(thread, vma, file, file_page)
        return page

    def _readahead(
        self, thread: SimThread, vma: VMA, file: BackingFile, file_page: int
    ) -> None:
        """madvise-driven sequential prefetch (Section 3.2)."""
        clock = thread.clock
        last = min(file.size_pages, file_page + 1 + self.readahead_pages)
        for page_index in range(file_page + 1, last):
            if self.cache.get_nocost(file, page_index) is not None:
                continue
            frame = self._allocate_with_eviction(thread)
            offset = file.device_offset(page_index)
            try:
                file.device.submit_async(clock, offset, units.PAGE_SIZE, is_write=False)
            except TransientDeviceError:
                # Readahead is speculative: degrade by abandoning the
                # window rather than retrying — the demand fault that
                # actually needs the page will retry through its io_path.
                self.cache.freelist.free(clock, thread.core, frame)
                self.readahead_aborted += 1
                break
            self.cache.pool.write(frame, file.device.store.read(offset, units.PAGE_SIZE))
            self.cache.insert(clock, file, page_index, frame)

    # -- eviction ---------------------------------------------------------------

    def _allocate_with_eviction(self, thread: SimThread) -> int:
        frame = self.cache.allocate_frame(thread.clock, thread.core)
        if frame is not None:
            return frame
        self._evict_batch(thread)
        frame = self.cache.allocate_frame(thread.clock, thread.core)
        if frame is None:
            raise OutOfMemoryError("eviction freed no frames")
        return frame

    def _evict_batch(self, thread: SimThread) -> None:
        """Synchronously evict a batch of cold pages (Section 3.2)."""
        clock = thread.clock
        self.eviction_batches += 1
        with TRACER.span("evict", clock):
            victims = self.cache.pick_victims(clock, self.cache.eviction_batch)
            if not victims:
                raise OutOfMemoryError("cache empty but freelist dry")

            dirty = sorted(
                (v for v in victims if v.dirty), key=lambda page: page.device_offset
            )
            if dirty:
                self._write_back_dirty(thread, dirty, sync=True)
            CRASH.point(f"{self.name}.evict")

            vpns: List[int] = []
            for page in victims:
                for vpn in page.mapped_vpns:
                    self.page_table.remove(vpn)
                    vpns.append(vpn)
                page.mapped_vpns.clear()
            self._shootdown(thread, vpns)
            for page in victims:
                self.cache.remove(clock, thread.core, page)

    def _write_back_dirty(
        self, thread: SimThread, pages: List[CachePage], sync: bool
    ) -> int:
        """Write dirty pages via this engine's I/O path, merging runs."""
        if isinstance(self.io_path, DaxIO):
            # DAX writeback is a memcpy per run; merging still helps the
            # per-copy FPU save amortization.
            written = 0
            with TRACER.span("writeback.io", thread.clock):
                for run in self._merge_runs(pages):
                    data = b"".join(self.cache.pool.read(page.frame) for page in run)
                    CRASH.point(f"{self.name}.writeback.run")
                    self.io_path.write(
                        thread.clock, run[0].device_offset, data, "writeback.io"
                    )
                    written += len(run)
        else:
            written = self._write_back_pages(thread, pages, sync=sync)
        for page in pages:
            self.cache.clear_dirty(thread.clock, page)
        return written

    # -- msync -------------------------------------------------------------------

    def msync(self, thread: SimThread, mapping: Mapping) -> int:
        """Flush the mapping's dirty pages, sorted by device offset.

        Intercepted in ring 0: no vmcall, a plain function call
        (Section 4.4).
        """
        with TRACER.span("msync", thread.clock):
            thread.clock.charge("msync.entry", 100)
            # Merging the per-core dirty trees to build the flush set costs
            # tree-walk cycles; charging it before the PTE downgrades also
            # keeps every mutation behind ``sync_preamble_cycles``.
            thread.clock.charge("msync.scan", constants.AQUILA_MSYNC_SCAN_CYCLES)
            file = mapping.vma.file
            first = mapping.vma.file_start_page
            last = first + mapping.vma.num_pages
            dirty = [
                page
                for page in self.cache.all_dirty_pages_sorted()
                if page.file.file_id == file.file_id and first <= page.file_page < last
            ]
            if not dirty:
                self._drain_inflight(thread, file)
                return 0
            # Downgrade PTEs to read-only so future writes re-mark dirty.
            vpns: List[int] = []
            for page in dirty:
                for vpn in page.mapped_vpns:
                    pte = self.page_table.lookup(vpn)
                    if pte is not None and pte.writable:
                        pte.writable = False
                        pte.dirty = False
                        vpns.append(vpn)
            self._shootdown(thread, vpns)
            written = self._write_back_dirty(thread, dirty, sync=True)
            # msync must not return before every queued write of this file
            # (including earlier async writeback) has completed.
            self._drain_inflight(thread, file)
            CRASH.point(f"{self.name}.msync")
            return written
