"""Storage environment adapters for the key-value stores.

RocksDB abstracts its I/O behind an ``Env``; the paper swaps that layer
between three modes (Section 5): direct I/O + user-space cache
(recommended), Linux mmap, and Aquila.  :class:`StorageEnv` is our
equivalent: the KV stores are written once against it, and each
experiment picks an implementation — the paper's
"minimal modifications" property.

Bulk file creation (SST output, WAL segments) always goes straight to the
device with large sequential writes in every mode; the modes differ in how
*reads* are served, which is what the paper measures.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common import units
from repro.fault.crash import CRASH
from repro.fault.retry import with_retries
from repro.mmio.engine import Mapping, MmioEngine
from repro.mmio.explicit import ExplicitIOEngine
from repro.mmio.files import BackingFile, ExtentAllocator
from repro.sim.executor import SimThread


class StorageEnv:
    """Abstract file environment."""

    name = "abstract"

    def write_file(self, thread: SimThread, name: str, data: bytes) -> BackingFile:
        """Create a file containing ``data`` (bulk sequential write)."""
        raise NotImplementedError

    def read(self, thread: SimThread, file: BackingFile, offset: int, nbytes: int) -> bytes:
        """Read a byte range of a file (the measured path)."""
        raise NotImplementedError

    def delete_file(self, thread: SimThread, file: BackingFile) -> None:
        """Delete a file, releasing its space and cached state."""
        raise NotImplementedError

    def append(self, thread: SimThread, file: BackingFile, offset: int, data: bytes) -> None:
        """Sequential append-style write at ``offset`` (WAL, logs)."""
        raise NotImplementedError

    def read_batch(self, thread: SimThread, requests) -> list:
        """Read many ``(file, offset, nbytes)`` ranges.

        Default: sequential reads.  Envs with an asynchronous path
        (io_uring) override this to batch the device round trips —
        the substrate for RocksDB's MultiGet.
        """
        return [
            self.read(thread, file, offset, nbytes)
            for file, offset, nbytes in requests
        ]


class _BulkWriter:
    """Shared bulk-write helper: large sequential device writes."""

    @staticmethod
    def bulk_write(thread: SimThread, file: BackingFile, offset: int, data: bytes,
                   chunk_bytes: int = 2 * units.MIB) -> None:
        """Write ``data`` in 1-2 MB chunks, the way compaction does."""
        pos = 0
        while pos < len(data):
            take = min(chunk_bytes, len(data) - pos)
            page = (offset + pos) >> units.PAGE_SHIFT
            in_page = (offset + pos) & (units.PAGE_SIZE - 1)
            chunk = data[pos : pos + take]
            dev_offset = file.device_offset(page) + in_page
            CRASH.point("bulk_write.chunk")
            with_retries(
                thread.clock,
                lambda dev_offset=dev_offset, chunk=chunk: file.device.submit(
                    thread.clock,
                    dev_offset,
                    len(chunk),
                    is_write=True,
                    data=chunk,
                    wait_category="idle.io.bulk_write",
                ),
                "io.bulk_write",
            )
            pos += take


class DirectIOEnv(StorageEnv):
    """Direct I/O + user-space cache (RocksDB's recommended mode)."""

    name = "direct-io"

    def __init__(
        self, io: ExplicitIOEngine, allocator: ExtentAllocator, io_uring=None
    ) -> None:
        """``io_uring``: an optional :class:`repro.devices.io_uring.IoUring`
        over the same device; when present, ``read_batch`` submits cache
        misses in one batch instead of one syscall each."""
        self.io = io
        self.allocator = allocator
        self.io_uring = io_uring

    def read_batch(self, thread: SimThread, requests) -> list:
        """Batched reads: probe the user cache, then one io_uring batch."""
        if self.io_uring is None:
            return super().read_batch(thread, requests)
        from repro.devices.io_uring import IoUringOp

        results = [None] * len(requests)
        misses = []
        for index, (file, offset, nbytes) in enumerate(requests):
            block = offset // units.PAGE_SIZE
            cached = self.io.cache.get(thread.clock, thread.tid, file.file_id, block)
            if cached is not None and offset % units.PAGE_SIZE == 0 and nbytes <= len(cached):
                results[index] = cached[:nbytes]
            else:
                misses.append((index, file, offset, nbytes))
        if misses:
            ops = [
                IoUringOp(file.device_offset(offset // units.PAGE_SIZE)
                          + offset % units.PAGE_SIZE, nbytes)
                for _, file, offset, nbytes in misses
            ]
            self.io_uring.submit_and_wait(thread.clock, ops, "io.uring")
            for (index, file, offset, nbytes), op in zip(misses, ops):
                results[index] = op.result
                if offset % units.PAGE_SIZE == 0 and nbytes == units.PAGE_SIZE:
                    self.io.cache.insert(
                        thread.clock, thread.tid, file.file_id,
                        offset // units.PAGE_SIZE, op.result,
                    )
        return results

    def write_file(self, thread: SimThread, name: str, data: bytes) -> BackingFile:
        file = self.allocator.create(name, len(data))
        self.io.vmx.syscall(thread.clock, "io.syscall")   # open/create
        _BulkWriter.bulk_write(thread, file, 0, data)
        return file

    def read(self, thread: SimThread, file: BackingFile, offset: int, nbytes: int) -> bytes:
        return self.io.pread(thread, file, offset, nbytes)

    def delete_file(self, thread: SimThread, file: BackingFile) -> None:
        self.io.vmx.syscall(thread.clock, "io.syscall")   # unlink
        self.io.cache.invalidate(file.file_id)
        self.allocator.free(file)

    def append(self, thread: SimThread, file: BackingFile, offset: int, data: bytes) -> None:
        self.io.pwrite(thread, file, offset, data)


class MmioEnv(StorageEnv):
    """Reads served through a memory-mapped I/O engine.

    Used for Linux mmap mode, kmmap mode, and Aquila mode — the engine
    instance decides which.  Files are mapped lazily on first read.
    """

    def __init__(self, engine: MmioEngine, allocator: ExtentAllocator,
                 file_factory=None) -> None:
        """``file_factory(thread, name, size) -> BackingFile`` overrides
        extent allocation (Aquila's blob namespace plugs in here)."""
        self.engine = engine
        self.allocator = allocator
        self.file_factory = file_factory
        self._mappings: Dict[int, Mapping] = {}

    @property
    def name(self) -> str:
        return f"mmio[{self.engine.name}]"

    def _create(self, thread: SimThread, name: str, size_bytes: int) -> BackingFile:
        if self.file_factory is not None:
            return self.file_factory(thread, name, size_bytes)
        return self.allocator.create(name, size_bytes)

    def write_file(self, thread: SimThread, name: str, data: bytes) -> BackingFile:
        file = self._create(thread, name, len(data))
        _BulkWriter.bulk_write(thread, file, 0, data)
        return file

    def mapping_of(self, thread: SimThread, file: BackingFile) -> Mapping:
        """The (lazily created) mapping for ``file``."""
        mapping = self._mappings.get(file.file_id)
        if mapping is None or not mapping.active:
            mapping = self.engine.mmap(thread, file)
            self._mappings[file.file_id] = mapping
        return mapping

    def read(self, thread: SimThread, file: BackingFile, offset: int, nbytes: int) -> bytes:
        return self.mapping_of(thread, file).load(thread, offset, nbytes)

    def delete_file(self, thread: SimThread, file: BackingFile) -> None:
        mapping = self._mappings.pop(file.file_id, None)
        if mapping is not None and mapping.active:
            # Skip the dirty flush of munmap: the file is being deleted.
            self.engine.invalidate_file(thread, file)
            self.engine.vmas.remove(thread.clock, mapping.vma)
            mapping.active = False
        else:
            self.engine.invalidate_file(thread, file)
        if self.file_factory is None:
            self.allocator.free(file)

    def append(self, thread: SimThread, file: BackingFile, offset: int, data: bytes) -> None:
        _BulkWriter.bulk_write(thread, file, offset, data)
        # bulk_write bypasses the engine cache; a stale (or dirty) cached
        # page would otherwise hide or clobber acknowledged WAL bytes.
        self.engine.update_cached_range(file, offset, data)

    def msync_all(self, thread: SimThread) -> int:
        """Flush every live mapping (shutdown/checkpoint)."""
        total = 0
        for mapping in self._mappings.values():
            if mapping.active:
                total += mapping.msync(thread)
        return total
