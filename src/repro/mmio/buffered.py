"""Buffered read/write I/O: Figure 1(a), the classic configuration.

The paper's motivation (Figure 1) contrasts four storage-cache setups;
configuration (a) is ordinary buffered syscalls through the *kernel*
page cache: every read is a syscall, a tree-locked page-cache lookup, and
a copy_to_user — even on hits.  Applications moved to user-space caches
(b) precisely to avoid the per-hit syscall; Aquila (d) removes the
remaining lookup cost entirely.

This engine reuses :class:`~repro.cache.kernel_cache.KernelPageCache`
(the same structure the mmap engine uses), so the contrast between
configurations is apples-to-apples.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.common import constants, units
from repro.cache.base import CachePage
from repro.cache.kernel_cache import KernelPageCache
from repro.hw.machine import Machine
from repro.hw.vmx import ExecutionDomain, VMXCostModel
from repro.mmio.files import BackingFile
from repro.sim.executor import SimThread

#: Kernel-side copy between the page cache and the user buffer, per page
#: (copy_to_user/copy_from_user is the kernel's non-SIMD copy).
COPY_TO_USER_4K_CYCLES = constants.MEMCPY_4K_NOSIMD_CYCLES


class BufferedIOEngine:
    """read()/write() through the kernel page cache (Figure 1(a))."""

    name = "buffered-io"

    def __init__(self, machine: Machine, cache_pages: int) -> None:
        self.machine = machine
        self.cache = KernelPageCache(cache_pages)
        self.vmx = VMXCostModel(ExecutionDomain.ROOT_RING3)
        self.reads = 0
        self.writes = 0

    # -- page-cache fill -------------------------------------------------------

    def _get_page(self, thread: SimThread, file: BackingFile, file_page: int) -> CachePage:
        clock = thread.clock
        page = self.cache.lookup(clock, thread.tid, file, file_page)
        if page is not None:
            return page
        (page,) = self.cache.insert_window(
            clock, thread.tid, file, file_page, file_page + 1,
            partial(self._reclaim, thread), set(),
        )
        data = file.device.submit(
            clock,
            file.device_offset(file_page),
            units.PAGE_SIZE,
            is_write=False,
            wait_category="idle.io.buffered",
        )
        self.cache.pool.write(page.frame, data)
        return page

    def _reclaim(self, thread: SimThread) -> None:
        victims = self.cache.pick_victims(32)
        dirty = sorted((v for v in victims if v.dirty), key=lambda p: p.device_offset)
        for page in dirty:
            self.cache.pool.read(page.frame)
            page.file.device.submit_async(
                thread.clock,
                page.device_offset,
                units.PAGE_SIZE,
                is_write=True,
                data=self.cache.pool.read(page.frame),
            )
            thread.clock.charge("writeback.submit", 400)
            page.dirty = False
        removed = self.cache.remove_batch(thread.clock, thread.tid, victims)
        if not removed and victims:
            self.cache.remove(thread.clock, thread.tid, victims[0])

    # -- the syscall surface ------------------------------------------------------

    def pread(self, thread: SimThread, file: BackingFile, offset: int, nbytes: int) -> bytes:
        """Buffered read: one syscall, page-cache lookups, copy_to_user."""
        if offset < 0 or nbytes < 0 or offset + nbytes > file.size_bytes:
            raise ValueError("pread outside file bounds")
        self.reads += 1
        clock = thread.clock
        self.machine.absorb_interference(thread)
        self.vmx.syscall(clock, "io.syscall")
        chunks: List[bytes] = []
        pos = offset
        remaining = nbytes
        while remaining > 0:
            file_page = pos >> units.PAGE_SHIFT
            in_page = pos & (units.PAGE_SIZE - 1)
            take = min(remaining, units.PAGE_SIZE - in_page)
            page = self._get_page(thread, file, file_page)
            clock.charge(
                "io.copy_to_user", COPY_TO_USER_4K_CYCLES * take / units.PAGE_SIZE
            )
            chunks.append(self.cache.pool.read_partial(page.frame, in_page, take))
            pos += take
            remaining -= take
        return b"".join(chunks)

    def pwrite(self, thread: SimThread, file: BackingFile, offset: int, data: bytes) -> None:
        """Buffered write: dirty the page-cache pages; writeback is lazy."""
        if offset < 0 or offset + len(data) > file.size_bytes:
            raise ValueError("pwrite outside file bounds")
        self.writes += 1
        clock = thread.clock
        self.machine.absorb_interference(thread)
        self.vmx.syscall(clock, "io.syscall")
        pos = offset
        written = 0
        while written < len(data):
            file_page = pos >> units.PAGE_SHIFT
            in_page = pos & (units.PAGE_SIZE - 1)
            take = min(len(data) - written, units.PAGE_SIZE - in_page)
            page = self._get_page(thread, file, file_page)
            clock.charge(
                "io.copy_from_user", COPY_TO_USER_4K_CYCLES * take / units.PAGE_SIZE
            )
            self.cache.pool.write_partial(page.frame, in_page, data[written : written + take])
            self.cache.mark_dirty(clock, thread.tid, page)
            pos += take
            written += take

    def fsync(self, thread: SimThread, file: BackingFile) -> int:
        """Flush the file's dirty pages synchronously; returns pages written."""
        clock = thread.clock
        self.vmx.syscall(clock, "io.syscall")
        dirty = sorted(
            (p for p in self.cache.pages_of_file(file.file_id) if p.dirty),
            key=lambda p: p.device_offset,
        )
        completions = []
        for page in dirty:
            completions.append(
                file.device.submit_async(
                    clock,
                    page.device_offset,
                    units.PAGE_SIZE,
                    is_write=True,
                    data=self.cache.pool.read(page.frame),
                )
            )
            clock.charge("writeback.submit", 400)
            page.dirty = False
        if completions:
            clock.wait_until(max(completions), "idle.io.fsync")
        return len(dirty)
