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
from repro.fault.crash import CRASH
from repro.hw.ept import EPT
from repro.hw.machine import Machine
from repro.hw.vmx import ExecutionDomain, VMXCostModel
from repro.mmio.engine import Mapping, MmioEngine
from repro.mmio.files import BackingFile
from repro.mmio.vma import MADV_SEQUENTIAL, VMA, AquilaVMAStore
from repro.obs import TRACER
from repro.sim.executor import SimThread


class AquilaEngine(MmioEngine):
    """Customizable mmio in non-root ring 0."""

    name = "aquila"

    #: Batching-invariant audit (see ``repro.sim.executor``): the earliest
    #: cross-thread-visible interaction on any Aquila operation is behind
    #: the 552-cycle fault entry, the mmap-class vmcall, or the msync
    #: entry + dirty-tree scan (100 + 220) — whichever is smallest.
    sync_preamble_cycles = 100 + constants.AQUILA_MSYNC_SCAN_CYCLES

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
        self.shootdown_batch = shootdown_batch
        self.readahead_pages = readahead_pages
        self._shootdowns = machine.make_shootdown_controller("aquila")
        self.ept = ept
        if self.ept is not None:
            self.ept.grant(0, cache_pages * units.PAGE_SIZE)
        self.eviction_batches = 0
        self.readahead_aborted = 0

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
    #
    # One straight-line protocol for every mode (traced or not, any CPI,
    # fault injection, EPT, readahead, any I/O path or partition): each
    # device command, retry, crash point and charge is a real call, and
    # the sub-spans fig7/fig8 read wrap the same code.  Other structures
    # are reached through their public (batch) methods only.

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
        file_page = vma.file_start_page + (vpn - vma.start_vpn)
        cache = self.cache

        page = cache.lookup(clock, file, file_page)
        if page is not None:
            self.minor_faults += 1
        else:
            # Miss: allocate (evicting a batch if the freelist is dry), copy
            # the page in, CAS-install it.
            self.major_faults += 1
            with TRACER.span("fault.alloc", clock):
                frame = self._allocate_with_eviction(thread)
            if self.ept is not None:
                # First touch of a fresh cache granule faults in EPT (1 GB
                # granules make this essentially free; Section 3.5).
                self.ept.translate(frame * units.PAGE_SIZE, clock)
            with TRACER.span("fault.io", clock):
                cache.pool.write(
                    frame,
                    self.io_path.read(
                        clock, file.device_offset(file_page), units.PAGE_SIZE, "fault.io"
                    ),
                )
            page = cache.insert(clock, file, file_page, frame)
            if page.frame != frame:
                # Lost the install race; recycle the speculative frame.
                cache.freelist.free(clock, thread.core, frame)
            if vma.advice == MADV_SEQUENTIAL and self.readahead_pages:
                with TRACER.span("fault.readahead", clock):
                    self._readahead(thread, vma, file, file_page)

        pte = self.page_table.install(vpn, page.frame, writable=is_write)
        page.mapped_vpns.add(vpn)
        clock.charge("fault.pte_install", constants.AQUILA_PTE_INSTALL_CYCLES)
        clock.charge("fault.misc", constants.AQUILA_FAULT_MISC_CYCLES)
        self.machine.tlbs[thread.core].fill(vpn)
        if is_write:
            # Write fault: mark dirty during the initial fault (Section 3.2).
            pte.dirty = True
            cache.mark_dirty(clock, thread.core, page)
        return page.frame

    def _write_protect_fault(self, thread: SimThread, vma: VMA, vpn: int, pte) -> int:
        """Read-only page written: just mark dirty (Section 3.2)."""
        clock = thread.clock
        self.vmx.fault_entry(clock)
        self.vmas.lookup(clock, vpn)
        page = self.cache.get_nocost(
            vma.file, vma.file_start_page + (vpn - vma.start_vpn)
        )
        if page is None:
            raise SegmentationFault(vpn << units.PAGE_SHIFT, "dirty fault on evicted page")
        self.cache.mark_dirty(clock, thread.core, page)
        pte.writable = True
        pte.dirty = True
        clock.charge("fault.pte_install", constants.AQUILA_PTE_INSTALL_CYCLES // 2)
        return page.frame

    # -- readahead -------------------------------------------------------------

    def _readahead(
        self, thread: SimThread, vma: VMA, file: BackingFile, file_page: int
    ) -> None:
        """madvise-driven sequential prefetch (Section 3.2)."""
        clock = thread.clock
        cache = self.cache
        device = file.device
        last = min(file.size_pages, file_page + 1 + self.readahead_pages)
        for page_index in range(file_page + 1, last):
            if cache.get_nocost(file, page_index) is not None:
                continue
            frame = self._allocate_with_eviction(thread)
            offset = file.device_offset(page_index)
            try:
                device.submit_async(clock, offset, units.PAGE_SIZE, is_write=False)
            except TransientDeviceError:
                # Readahead is speculative: degrade by abandoning the
                # window rather than retrying — the demand fault that
                # actually needs the page will retry through its io_path.
                cache.freelist.free(clock, thread.core, frame)
                self.readahead_aborted += 1
                break
            cache.pool.write(frame, device.store.read(offset, units.PAGE_SIZE))
            cache.insert(clock, file, page_index, frame)

    # -- eviction ---------------------------------------------------------------

    def _allocate_with_eviction(self, thread: SimThread) -> int:
        freelist = self.cache.freelist
        frame = freelist.allocate(thread.clock, thread.core)
        if frame is None:
            self._evict_batch(thread)
            frame = freelist.allocate(thread.clock, thread.core)
            if frame is None:
                raise OutOfMemoryError("eviction freed no frames")
        return frame

    def _evict_batch(self, thread: SimThread) -> None:
        """Synchronously evict a batch of cold pages (Section 3.2).

        Dirty victims are written back in device-offset order first; then
        every victim's PTEs go in one batched shootdown, and the victims
        leave the cache in selection order.
        """
        clock = thread.clock
        cache = self.cache
        self.eviction_batches += 1
        with TRACER.span("evict", clock):
            victims = cache.pick_victims(clock, cache.eviction_batch)
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
                if page.mapped_vpns:
                    vpns.extend(page.mapped_vpns)
                    page.mapped_vpns.clear()
            self.page_table.remove_many(vpns)
            self._shootdown(thread, vpns)
            cache.remove_many(clock, thread.core, victims)

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
