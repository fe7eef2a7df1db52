"""Explicit I/O engine: direct read/write syscalls + a user-space cache.

This is the paper's main non-mmio baseline — RocksDB's recommended
configuration (Section 5): every read first probes a sharded user-space
LRU cache (paying lookup cycles even on hits), and misses issue direct-I/O
pread syscalls (13 K cycles of kernel work per miss for RocksDB's file
layout, Figure 7) plus the device access.

It exposes a pread/pwrite-style interface over :class:`BackingFile` so
the KV stores can swap it for an mmio engine behind one adapter.
"""

from __future__ import annotations

from typing import Optional

from repro.common import constants, units
from repro.cache.user_cache import UserSpaceCache
from repro.fault.crash import CRASH
from repro.fault.retry import RetryPolicy, with_retries
from repro.hw.machine import Machine
from repro.hw.vmx import ExecutionDomain, VMXCostModel
from repro.mmio.files import BackingFile
from repro.obs import METRICS, TRACER
from repro.sim.executor import SimThread

#: RocksDB reads SST data in block-sized units; blocks here are one page.
BLOCK_SIZE = units.PAGE_SIZE


class ExplicitIOEngine:
    """Direct I/O with user-space caching."""

    name = "explicit-io"

    #: Batching-invariant audit (see ``repro.sim.executor``): unlike the
    #: mmio engines, explicit reads touch shared state (the sharded user
    #: cache) behind *lock timelines*, not behind a fixed preamble charge.
    #: Misses and writes do start with a >= 300-cycle syscall, so this
    #: declaration is honest for them — but cache hits do not, which is
    #: why explicit reads never batch: every read is its own executor step.
    sync_preamble_cycles = constants.SYSCALL_CYCLES

    #: Retry policy for transient device faults (None = stack default).
    retry_policy: Optional[RetryPolicy] = None

    def __init__(
        self,
        machine: Machine,
        cache_pages: int,
        syscall_miss_cycles: float = constants.USERCACHE_SYSCALL_MISS_CYCLES,
        num_shards: int = 64,
    ) -> None:
        self.machine = machine
        self.cache = UserSpaceCache(cache_pages, num_shards=num_shards)
        self.vmx = VMXCostModel(ExecutionDomain.ROOT_RING3)
        self.syscall_miss_cycles = syscall_miss_cycles
        self.reads = 0
        self.writes = 0
        METRICS.bind_object(
            f"engine.{self.name}",
            self,
            {"reads": "reads", "writes": "writes"},
        )

    def _read_block(self, thread: SimThread, file: BackingFile, block: int) -> bytes:
        """One cached block read: user-cache probe, then direct-I/O pread."""
        clock = thread.clock
        self.machine.absorb_interference(thread)
        with TRACER.span("ucache.lookup", clock):
            data = self.cache.get(clock, thread.tid, file.file_id, block)
        if data is not None:
            return data
        # Direct-I/O pread: syscall + VFS/filesystem/block-layer work
        # (the Figure 7 "system calls" component), then the device.
        with TRACER.span("io.syscall", clock):
            self.vmx.syscall(clock, "io.syscall")
            clock.charge(
                "io.syscall.kernel", self.syscall_miss_cycles - constants.SYSCALL_CYCLES
            )
        with TRACER.span("io.device", clock):
            data = with_retries(
                clock,
                lambda: file.device.submit(
                    clock,
                    file.device_offset(block),
                    BLOCK_SIZE,
                    is_write=False,
                    wait_category="idle.io.read",
                ),
                "io",
                self.retry_policy,
            )
        with TRACER.span("ucache.insert", clock):
            self.cache.insert(clock, thread.tid, file.file_id, block, data)
        return data

    def pread(self, thread: SimThread, file: BackingFile, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at ``offset`` through the user cache."""
        if offset < 0 or nbytes < 0 or offset + nbytes > file.size_bytes:
            raise ValueError(
                f"pread [{offset}, +{nbytes}) outside file of {file.size_bytes} bytes"
            )
        self.reads += 1
        chunks = []
        pos = offset
        remaining = nbytes
        while remaining > 0:
            block = pos // BLOCK_SIZE
            in_block = pos % BLOCK_SIZE
            take = min(remaining, BLOCK_SIZE - in_block)
            data = self._read_block(thread, file, block)
            chunks.append(data[in_block : in_block + take])
            pos += take
            remaining -= take
        return b"".join(chunks)

    def pwrite(self, thread: SimThread, file: BackingFile, offset: int, data: bytes) -> None:
        """Direct write-through: one syscall + device write per call.

        RocksDB issues large sequential writes (WAL appends, compaction
        output), so the per-call overhead amortizes; data is not cached
        (direct I/O bypasses caches on writes).
        """
        if offset < 0 or offset + len(data) > file.size_bytes:
            raise ValueError("pwrite outside file bounds")
        self.writes += 1
        clock = thread.clock
        self.machine.absorb_interference(thread)
        with TRACER.span("io.syscall", clock):
            self.vmx.syscall(clock, "io.syscall")
            clock.charge(
                "io.syscall.kernel", self.syscall_miss_cycles - constants.SYSCALL_CYCLES
            )
        # Direct I/O bypasses the cache; stale cached blocks must go.  New
        # files (the common case: WAL, compaction output) have none.
        self.cache.invalidate_range(
            file.file_id, offset // BLOCK_SIZE, (offset + len(data) - 1) // BLOCK_SIZE
        )
        # Submit per device-contiguous run (extent files are one run).
        with TRACER.span("io.device", clock):
            pos = offset
            written = 0
            while written < len(data):
                page = pos // units.PAGE_SIZE
                in_page = pos % units.PAGE_SIZE
                run_pages = file.contiguous_run(page, units.pages(len(data) - written) + 1)
                take = min(len(data) - written, run_pages * units.PAGE_SIZE - in_page)
                chunk = data[written : written + take]
                dev_offset = file.device_offset(page) + in_page
                CRASH.point(f"{self.name}.pwrite.run")
                with_retries(
                    clock,
                    lambda dev_offset=dev_offset, chunk=chunk: file.device.submit(
                        clock,
                        dev_offset,
                        len(chunk),
                        is_write=True,
                        data=chunk,
                        wait_category="idle.io.write",
                    ),
                    "io",
                    self.retry_policy,
                )
                pos += take
                written += take

    def fsync(self, thread: SimThread, file: BackingFile) -> None:
        """Direct I/O writes are durable on completion; fsync is a syscall."""
        self.vmx.syscall(thread.clock, "io.syscall")
        CRASH.point(f"{self.name}.fsync")
