"""The Aquila library OS context (paper Section 4).

One :class:`Aquila` instance corresponds to one application process that
has entered Aquila mode.  It owns:

* the :class:`~repro.mmio.aquila.AquilaEngine` (page table, DRAM cache,
  fault handling) configured from an :class:`AquilaConfig`;
* the device-access path — DAX for pmem, SPDK + Blobstore for NVMe, or
  host syscalls for comparison (Section 3.3);
* the **system-call interception table** (Section 4.4): ``mmap``,
  ``munmap``, ``mremap``, ``madvise``, ``mprotect`` and ``msync`` are
  handled in non-root ring 0 as plain function calls; everything else is
  redirected to the host OS via vmcall;
* **dynamic cache resizing** through EPT granules (Section 3.5).

Applications need two integration points, mirroring the paper's
"minimal changes": ``enter()`` once at startup and
``register_thread()`` per thread.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common import units
from repro.common.errors import ConfigError
from repro.core.config import AquilaConfig
from repro.devices.block import BlockDevice
from repro.devices.blobstore import Blobstore, FileBlobNamespace
from repro.devices.io_engines import DaxIO, HostSyscallIO, IOPath, SpdkIO
from repro.devices.pmem import PmemDevice
from repro.hw.ept import EPT
from repro.hw.machine import Machine
from repro.mmio.aquila import AquilaEngine
from repro.mmio.engine import Mapping
from repro.mmio.files import BackingFile, BlobFile, ExtentAllocator
from repro.sim.executor import SimThread

#: One-time cost of dune_init-style entry into non-root ring 0 (VMCS setup,
#: EPT install, page-table takeover) — charged once, off any hot path.
ENTER_COST_CYCLES = 2_000_000

#: Per-thread cost of switching a new thread into Aquila mode (vmlaunch).
THREAD_ENTER_COST_CYCLES = 50_000

#: System calls Aquila intercepts in non-root ring 0 (Section 4.4).
INTERCEPTED_SYSCALLS = frozenset(
    ["mmap", "munmap", "mremap", "madvise", "mprotect", "msync"]
)


class Aquila:
    """A process running under the Aquila library OS."""

    def __init__(
        self,
        machine: Machine,
        device: BlockDevice,
        config: Optional[AquilaConfig] = None,
    ) -> None:
        self.machine = machine
        self.device = device
        self.config = config if config is not None else AquilaConfig()
        self.config.validate()

        self.blobstore: Optional[Blobstore] = None
        self.namespace: Optional[FileBlobNamespace] = None
        self._extents: Optional[ExtentAllocator] = None
        io_path = self._build_io_path()

        ept = EPT(self.config.ept_granule) if self.config.use_ept else None
        self.engine = AquilaEngine(
            machine,
            cache_pages=self.config.cache_pages,
            io_path=io_path,
            eviction_batch=self.config.eviction_batch,
            shootdown_batch=self.config.shootdown_batch,
            freelist_move_batch=self.config.freelist_move_batch,
            freelist_core_threshold=self.config.freelist_core_threshold,
            readahead_pages=self.config.readahead_pages,
            ept=ept,
        )
        self._entered = False
        self._threads: Dict[int, SimThread] = {}
        self._files: Dict[str, BackingFile] = {}
        self.intercepted_calls = 0
        self.forwarded_calls = 0

    def _build_io_path(self) -> IOPath:
        if self.config.io_path == "dax":
            if not isinstance(self.device, PmemDevice):
                raise ConfigError("the DAX path requires a pmem device")
            return DaxIO(self.device, use_simd=self.config.use_simd_memcpy)
        if self.config.io_path == "spdk":
            self.blobstore = Blobstore(self.device)
            self.namespace = FileBlobNamespace(self.blobstore)
            return SpdkIO(self.device)
        # Host-syscall path: every I/O vmcalls into the host OS.  Uses its
        # own transition-cost model (same domain as the engine).
        from repro.hw.vmx import ExecutionDomain, VMXCostModel

        return HostSyscallIO(
            self.device, VMXCostModel(ExecutionDomain.NONROOT_RING0)
        )

    # -- lifecycle ----------------------------------------------------------

    def enter(self, thread: SimThread) -> None:
        """Initialize Aquila mode (the single call added to ``main``)."""
        if self._entered:
            return
        thread.clock.charge("aquila.enter", ENTER_COST_CYCLES)
        self._entered = True
        self.register_thread(thread)

    def register_thread(self, thread: SimThread) -> None:
        """Switch one application thread into non-root ring 0."""
        if thread.tid not in self._threads:
            thread.clock.charge("aquila.thread_enter", THREAD_ENTER_COST_CYCLES)
            self._threads[thread.tid] = thread

    @property
    def entered(self) -> bool:
        """Whether ``enter`` has run."""
        return self._entered

    # -- intercepted file / memory syscalls -----------------------------------

    def open(self, thread: SimThread, path: str, size_bytes: int = 0) -> BackingFile:
        """Resolve a file name to a backing file.

        With SPDK, ``open`` is intercepted and translated to a blob
        (Section 3.3); otherwise files are extents handed out by the host
        (a forwarded metadata operation).
        """
        existing = self._files.get(path)
        if existing is not None:
            return existing
        if self.namespace is not None:
            self.intercepted_calls += 1
            thread.clock.charge("aquila.open", 500)
            blob_id = self.namespace.open(path, create=True, size_bytes=size_bytes)
            file: BackingFile = BlobFile(path, self.blobstore, blob_id, size_bytes)
        else:
            # Metadata operations are forwarded to the host OS (Section 3.3).
            self.forwarded_calls += 1
            self.engine.vmx.syscall(thread.clock, "vmcall.open")
            if self._extents is None:
                self._extents = ExtentAllocator(self.device)
            file = self._extents.create(path, size_bytes)
        self._files[path] = file
        return file

    def mmap(
        self,
        thread: SimThread,
        file: BackingFile,
        num_pages: Optional[int] = None,
        file_start_page: int = 0,
    ) -> Mapping:
        """Intercepted mmap: handled in ring 0, no vmcall on this leg."""
        self.intercepted_calls += 1
        return self.engine.mmap(thread, file, num_pages, file_start_page)

    def syscall(self, thread: SimThread, name: str) -> bool:
        """Dispatch a named syscall; returns True when intercepted.

        Intercepted calls cost a function call; the rest vmcall into the
        host (Section 4.4).
        """
        if name in INTERCEPTED_SYSCALLS:
            self.intercepted_calls += 1
            thread.clock.charge("aquila.intercepted_syscall", 50)
            return True
        self.forwarded_calls += 1
        self.engine.vmx.syscall(thread.clock, f"vmcall.{name}")
        return False

    # -- dynamic cache resizing (Section 3.5) -----------------------------------

    def resize_cache(self, thread: SimThread, new_cache_pages: int) -> int:
        """Grow or shrink the DRAM cache in EPT-granule units.

        Growth: the host grants GPA ranges (one vmcall) and backing pages
        are installed lazily by EPT faults — cheap with 1 GB granules.
        Shrink: dirty victims are written back, pages evicted, granules
        revoked.  Returns the resulting capacity in pages.
        """
        if new_cache_pages <= 0:
            raise ConfigError("cache size must stay positive")
        cache = self.engine.cache
        current = cache.capacity_pages
        if new_cache_pages == current:
            return current
        self.engine.vmx.syscall(thread.clock, "vmcall.resize")
        if new_cache_pages > current:
            grown = cache.grow(new_cache_pages - current)
            if self.engine.ept is not None:
                self.engine.ept.grant(
                    grown[0] * units.PAGE_SIZE, len(grown) * units.PAGE_SIZE
                )
        else:
            needed = current - new_cache_pages
            while cache.freelist.free_count() < needed:
                self.engine.evict_batch(thread)
            shrunk = cache.shrink_free(needed)
            if self.engine.ept is not None and shrunk:
                # The host reclaims EPT backing only in whole granules
                # (1 GB in the paper's configuration): revoke a granule
                # only once every frame inside it has been retired.
                granule = self.engine.ept.granule_bytes
                pages_per_granule = max(1, granule // units.PAGE_SIZE)
                by_granule = {}
                for frame in shrunk:
                    index = frame * units.PAGE_SIZE // granule
                    by_granule.setdefault(index, []).append(frame)
                for index, frames in by_granule.items():
                    if len(frames) >= pages_per_granule:
                        self.engine.ept.revoke(index * granule, granule)
        return cache.capacity_pages

    # -- stats ------------------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        """Operational counters for reporting."""
        cache = self.engine.cache
        return {
            "capacity_pages": cache.capacity_pages,
            "resident_pages": cache.resident_pages(),
            "dirty_pages": cache.dirty_count(),
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "faults": self.engine.faults,
            "major_faults": self.engine.major_faults,
            "intercepted_calls": self.intercepted_calls,
            "forwarded_calls": self.forwarded_calls,
        }
