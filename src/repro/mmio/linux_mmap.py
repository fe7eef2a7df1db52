"""The Linux mmap mmio path (the paper's baseline).

Reproduces the behaviours the paper attributes to Linux:

* ring 3 -> ring 0 **trap** on every fault (1287 cycles, Section 6.4);
* ``mmap_sem`` read lock + VMA rb-tree walk, then the per-inode
  **tree lock** for every page-cache lookup, insert, removal, and dirty
  marking — the single contended lock of Section 6.5;
* **128 KB readahead** around faults ("mmap prefetches 128KB for 1KB
  reads", Section 6.1), disabled by ``MADV_RANDOM``;
* **direct reclaim** in the faulting thread when the cgroup-limited page
  cache is full, including writeback of dirty victims and per-page TLB
  shootdowns;
* **aggressive writeback**: when dirty pages exceed the dirty ratio the
  faulting thread synchronously flushes a batch (the behaviour Tucana and
  kmmap call out as causing latency variability, Section 7.2).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.common import constants, units
from repro.common.errors import OutOfMemoryError, SegmentationFault, TransientDeviceError
from repro.devices.pmem import PmemDevice
from repro.cache.base import CachePage
from repro.cache.kernel_cache import KernelPageCache
from repro.fault.crash import CRASH
from repro.fault.retry import with_retries
from repro.hw.machine import Machine
from repro.hw.vmx import ExecutionDomain, VMXCostModel
from repro.mmio.engine import Mapping, MmioEngine
from repro.mmio.files import BackingFile
from repro.mmio.vma import MADV_RANDOM, MADV_SEQUENTIAL, VMA, LinuxVMAStore
from repro.obs import TRACER
from repro.sim.executor import SimThread

#: Linux direct reclaim works in SWAP_CLUSTER_MAX-sized batches.
RECLAIM_BATCH_PAGES = 32

#: Fraction of the page cache allowed to be dirty before the faulting
#: thread is forced into synchronous writeback (vm.dirty_ratio class knob).
DIRTY_RATIO = 0.20


class LinuxMmapEngine(MmioEngine):
    """Linux kernel mmio over a shared kernel page cache."""

    name = "linux-mmap"

    #: Batching-invariant audit (see ``repro.sim.executor``): every Linux
    #: operation reaches shared state behind at least a syscall entry
    #: (msync, mmap-class updates) or the 1287-cycle fault trap.
    sync_preamble_cycles = constants.SYSCALL_CYCLES

    def __init__(
        self,
        machine: Machine,
        cache_pages: int,
        readahead_pages: int = constants.LINUX_READAHEAD_PAGES,
        dirty_ratio: float = DIRTY_RATIO,
    ) -> None:
        super().__init__(
            machine,
            LinuxVMAStore(),
            VMXCostModel(ExecutionDomain.ROOT_RING3),
        )
        self.cache = KernelPageCache(cache_pages)
        self.readahead_pages = readahead_pages
        self.dirty_ratio = dirty_ratio
        self._shootdowns = machine.make_shootdown_controller("linux")
        self.readahead_reads = 0
        self.readahead_aborted = 0
        self.reclaim_runs = 0
        # Pages locked by an in-progress fault (PG_locked): reclaim skips
        # them, so a readahead window can never evict its own pages.
        self._pinned = set()

    # -- engine plumbing ------------------------------------------------------

    def _cached_page(self, file: BackingFile, file_page: int) -> Optional[CachePage]:
        return self.cache.get_nocost(file, file_page)

    def _shootdown(self, thread: SimThread, vpns: List[int]) -> None:
        self._shootdowns.shootdown(thread.clock, thread.core, vpns)

    def _charge_range_update(self, thread: SimThread) -> None:
        self.vmx.syscall(thread.clock, "syscall.mmap")

    def _pages_of_file(self, file_id: int):
        return self.cache.pages_of_file(file_id)

    def _drop_page(self, thread: SimThread, page: CachePage) -> None:
        self.cache.remove(thread.clock, thread.tid, page)

    # -- fault handling ---------------------------------------------------------
    #
    # One straight-line protocol for every mode (traced or not, any CPI,
    # fault injection, any device or readahead window): each lock, device
    # command, retry and crash point is a real call, and the sub-spans
    # fig7/fig8 read wrap the same code.  Other structures are reached
    # through their public (batch) methods only.

    def _fault(self, thread: SimThread, vma: VMA, vpn: int, is_write: bool) -> int:
        clock = thread.clock
        self.vmx.traps += 1   # ring 3 -> ring 0 trap
        clock.charge("fault.trap", constants.TRAP_RING3_CYCLES)
        # No sub-spans around the vma/cache lookups: they are cheap, run on
        # every fault, and their cycles stay visible as charge categories
        # on the enclosing "fault" span.
        checked = self.vmas.lookup(clock, vpn)   # mmap_sem + rb-tree walk
        if checked is None or checked.vma_id != vma.vma_id:
            raise SegmentationFault(vpn << units.PAGE_SHIFT)
        file = vma.file
        file_page = vma.file_start_page + (vpn - vma.start_vpn)

        page = self.cache.lookup(clock, thread.tid, file, file_page)
        if page is None:
            self.major_faults += 1
            page = self._read_in(thread, vma, file, file_page)
        else:
            self.minor_faults += 1

        pte = self.page_table.install(vpn, page.frame, writable=False)
        page.mapped_vpns.add(vpn)
        clock.charge("fault.pte_install", constants.LINUX_PTE_INSTALL_CYCLES)
        self.machine.tlbs[thread.core].fill(vpn)
        if is_write:
            self._mark_page_dirty(thread, page, pte)
        return page.frame

    def _write_protect_fault(self, thread: SimThread, vma: VMA, vpn: int, pte) -> int:
        """A store to a read-only PTE: full trap and VMA check, then dirty."""
        clock = thread.clock
        self.vmx.traps += 1
        clock.charge("fault.trap", constants.TRAP_RING3_CYCLES)
        self.vmas.lookup(clock, vpn)
        page = self.cache.get_nocost(
            vma.file, vma.file_start_page + (vpn - vma.start_vpn)
        )
        if page is None:
            raise SegmentationFault(vpn << units.PAGE_SHIFT, "dirty fault on evicted page")
        self._mark_page_dirty(thread, page, pte)
        return page.frame

    def _mark_page_dirty(self, thread: SimThread, page: CachePage, pte) -> None:
        """Mark ``page`` dirty (tree lock) and make its PTE writable and dirty."""
        clock = thread.clock
        self.cache.mark_dirty(clock, thread.tid, page)
        pte.writable = True
        pte.dirty = True
        clock.charge("fault.pte_install", constants.LINUX_PTE_INSTALL_CYCLES // 2)
        # Background writeback must skip the page being dirtied right now:
        # its store has not landed in the frame yet (the fault returns
        # first), so flushing it here would persist stale bytes and mark
        # it clean — losing the write on a later eviction.
        self._maybe_writeback(thread, exclude_key=page.key)

    # -- page-cache fill (miss path) ---------------------------------------------

    def _read_in(
        self, thread: SimThread, vma: VMA, file: BackingFile, file_page: int
    ) -> CachePage:
        """Read the faulting page plus its readahead window.

        Mirrors the kernel's ordering: pages are added to the page-cache
        tree first (tree lock held only for the insert), then the device
        reads fill them — so the tree lock is *not* held across I/O.
        """
        clock = thread.clock
        cache = self.cache
        # Read-around window: one page under MADV_RANDOM, else centered
        # on the fault, clamped to a quarter of the cache (the kernel
        # backs off under memory pressure) and clipped to file and VMA.
        advice = vma.advice
        ra = (
            1 if advice == MADV_RANDOM
            else self.readahead_pages * 2 if advice == MADV_SEQUENTIAL
            else self.readahead_pages
        )
        ra = min(ra, cache.capacity_pages // 4)
        if ra <= 1:
            first, last = file_page, file_page + 1
        else:
            start = max(0, file_page - ra // 2)
            end = max(min(file.size_pages, start + ra), file_page + 1)
            first = max(start, vma.file_start_page)
            last = min(end, vma.file_start_page + vma.num_pages)

        # Phase 1: allocate frames and insert tree entries.  Each fresh
        # page stays pinned (PG_locked) until its data arrives so
        # concurrent reclaim cannot steal it.
        pinned = self._pinned
        with TRACER.span("fault.alloc", clock):
            fresh = cache.insert_window(
                clock, thread.tid, file, first, last,
                partial(self._reclaim_batch, thread), pinned,
            )

        # Phase 2: read device data into the new frames, one command per
        # device-contiguous run; only the run holding the faulting page
        # blocks, the rest is readahead.
        with TRACER.span("fault.io", clock):
            device = file.device
            pool = cache.pool
            count = len(fresh)
            begin = 0
            while begin < count:
                offset = file.device_offset(fresh[begin].file_page)
                end = begin + 1
                nbytes = units.PAGE_SIZE
                while (
                    end < count
                    and file.device_offset(fresh[end].file_page) == offset + nbytes
                ):
                    end += 1
                    nbytes += units.PAGE_SIZE
                run = fresh[begin:end]
                begin = end
                # ``fresh`` is in file-page order and holds the faulting
                # page, so the range test finds the one run containing it.
                if run[0].file_page <= file_page <= run[-1].file_page:
                    data = with_retries(
                        clock,
                        partial(device.submit, clock, offset, nbytes, is_write=False,
                                wait_category="idle.io.fault"),
                        "fault.io",
                        self.retry_policy,
                    )
                    if not isinstance(device, PmemDevice):
                        # Interrupt-driven completion: IRQ + wakeup + reschedule.
                        clock.charge("fault.io.irq", constants.HOST_NVME_COMPLETION_CYCLES)
                else:
                    try:
                        device.submit_async(clock, offset, nbytes, is_write=False)
                    except TransientDeviceError:
                        # Speculative readahead degrades instead of retrying:
                        # drop the fresh pages so nobody sees unfilled frames.
                        for page in run:
                            pinned.discard(page.key)
                            cache.remove(clock, thread.tid, page)
                        self.readahead_aborted += len(run)
                        continue
                    data = device.store.read(offset, nbytes)
                    self.readahead_reads += len(run)
                for index, page in enumerate(run):
                    pool.write(
                        page.frame,
                        data[index * units.PAGE_SIZE : (index + 1) * units.PAGE_SIZE],
                    )
        for page in fresh:
            pinned.discard(page.key)

        target = cache.get_nocost(file, file_page)
        if target is None:
            raise OutOfMemoryError("failed to populate faulting page")
        return target

    # -- reclaim and writeback ---------------------------------------------------

    def _reclaim_batch(self, thread: SimThread) -> None:
        """Direct reclaim: evict a batch of cold pages in the faulting thread.

        Busy mappings are skipped (trylock), as ``shrink_page_list`` does;
        a forced single-page eviction guarantees progress if every victim
        group was busy.
        """
        clock = thread.clock
        self.reclaim_runs += 1
        with TRACER.span("reclaim", clock):
            pinned = self._pinned
            victims = [
                page
                for page in self.cache.pick_victims(RECLAIM_BATCH_PAGES * 2)
                if page.key not in pinned
            ][:RECLAIM_BATCH_PAGES]
            if not victims:
                raise OutOfMemoryError("page cache empty but allocation failed")
            clock.charge(
                "reclaim.scan", constants.LINUX_RECLAIM_PER_PAGE_CYCLES * len(victims)
            )
            dirty = sorted(
                (v for v in victims if v.dirty), key=lambda page: page.device_offset
            )
            if dirty:
                self._write_back_pages(thread, dirty, sync=True, category="reclaim.writeback")
                # Victims the trylock pass skips stay resident: they must be
                # re-protected like any cleaned page.
                self._mark_clean_and_protect(thread, dirty)
            CRASH.point(f"{self.name}.reclaim")
            removed = self.cache.remove_batch(clock, thread.tid, victims)
            if not removed:
                # Every mapping was busy: force one page out to make progress.
                forced = victims[0]
                self.cache.remove(clock, thread.tid, forced)
                removed = [forced]
            vpns: List[int] = []
            for page in removed:
                if page.mapped_vpns:
                    vpns.extend(page.mapped_vpns)
                    page.mapped_vpns.clear()
            self.page_table.remove_many(vpns)
            self._shootdowns.shootdown(clock, thread.core, vpns)

    def _maybe_writeback(self, thread: SimThread, exclude_key=None) -> None:
        """Aggressive background writeback charged to the dirtying thread."""
        limit = int(self.cache.capacity_pages * self.dirty_ratio)
        if self.cache.dirty_pages() <= limit:
            return
        with TRACER.span("writeback.bg", thread.clock):
            dirty = sorted(
                (
                    page
                    for page in self._all_pages()
                    if page.dirty and page.key != exclude_key
                ),
                key=lambda page: page.device_offset,
            )[: constants.LINUX_WRITEBACK_BATCH_PAGES]
            self._write_back_pages(thread, dirty, sync=False, category="writeback.bg")
            self._mark_clean_and_protect(thread, dirty)

    def _mark_clean_and_protect(self, thread: SimThread, pages) -> None:
        """Clean written-back pages and write-protect their PTEs.

        The kernel's ``clear_page_dirty_for_io``: a page going clean must
        be re-protected so the *next* store takes a protection fault and
        re-marks it dirty — otherwise later writes are lost on eviction.
        """
        vpns: List[int] = []
        for page in pages:
            page.dirty = False
            for vpn in page.mapped_vpns:
                pte = self.page_table.lookup(vpn)
                if pte is not None and pte.writable:
                    pte.writable = False
                    pte.dirty = False
                    vpns.append(vpn)
        self._shootdown(thread, vpns)

    def _all_pages(self):
        return self.cache.pages()

    def msync(self, thread: SimThread, mapping: Mapping) -> int:
        """Synchronously flush the mapping's dirty pages."""
        self._require_active(mapping, "msync")
        with TRACER.span("msync", thread.clock):
            self.vmx.syscall(thread.clock, "syscall.msync")
            file = mapping.vma.file
            first = mapping.vma.file_start_page
            last = first + mapping.vma.num_pages
            dirty = sorted(
                (
                    page
                    for page in self._all_pages()
                    if page.dirty
                    and page.file.file_id == file.file_id
                    and first <= page.file_page < last
                ),
                key=lambda page: page.device_offset,
            )
            written = self._write_back_pages(
                thread, dirty, sync=True, category="writeback.msync"
            )
            self._mark_clean_and_protect(thread, dirty)
            # Ordering: background writeback (sync=False) marked its pages
            # clean at submission, so they are invisible to the dirty scan
            # above — but their device completions may still be pending.
            # msync must not report durability before they land.
            self._drain_inflight(thread, file)
            CRASH.point(f"{self.name}.msync")
            return written
