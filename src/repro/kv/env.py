"""Storage environment adapters for the key-value stores.

RocksDB abstracts its I/O behind an ``Env``; the paper swaps that layer
between three modes (Section 5): direct I/O + user-space cache
(recommended), Linux mmap, and Aquila.  :class:`StorageEnv` is our
equivalent: the KV stores are written once against it, and each
experiment picks an implementation — the paper's
"minimal modifications" property.

Bulk file creation (SST output, WAL segments) always goes straight to the
device with large sequential writes in every mode; the modes differ in how
*reads* are served, which is what the paper measures.  A preallocated file
(a WAL segment) passes :class:`Zeros` as its data, so its zeros are made
one bulk-write chunk at a time rather than as one file-sized buffer.
"""

from __future__ import annotations

from typing import Dict

from repro.common import units
from repro.fault.crash import CRASH
from repro.fault.retry import with_retries
from repro.mmio.engine import Mapping, MmioEngine
from repro.mmio.explicit import ExplicitIOEngine
from repro.mmio.files import BackingFile, ExtentAllocator
from repro.sim.executor import SimThread


class Zeros:
    """``size`` zero bytes that are never held at once.

    Slicing returns the slice's zeros as ``bytes``, which is all
    :meth:`_BulkWriter.bulk_write` does with its data; the device commands
    are those of ``bytes(size)``.
    """

    def __init__(self, size: int) -> None:
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: slice) -> bytes:
        return bytes(len(range(*index.indices(self.size))))


class StorageEnv:
    """Abstract file environment."""

    name = "abstract"

    def write_file(self, thread: SimThread, name: str, data: bytes) -> BackingFile:
        """Create a file containing ``data`` (bulk sequential write).

        ``data`` is ``bytes`` or, to preallocate a zero-filled file,
        :class:`Zeros`.
        """
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
            dev_offset = file.device_offset(page) + in_page
            CRASH.point("bulk_write.chunk")
            # Sliced inside the command, so a chunk lives only while it is
            # written: a preallocation holds one chunk of zeros at a time.
            with_retries(
                thread.clock,
                lambda dev_offset=dev_offset, start=pos, take=take: file.device.submit(
                    thread.clock,
                    dev_offset,
                    take,
                    is_write=True,
                    data=data[start : start + take],
                    wait_category="idle.io.bulk_write",
                ),
                "io.bulk_write",
            )
            pos += take


class DirectIOEnv(StorageEnv):
    """Direct I/O + user-space cache (RocksDB's recommended mode)."""

    name = "direct-io"

    def __init__(self, io: ExplicitIOEngine, allocator: ExtentAllocator) -> None:
        self.io = io
        self.allocator = allocator

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

    def __init__(self, engine: MmioEngine, allocator: ExtentAllocator) -> None:
        self.engine = engine
        self.allocator = allocator
        self._mappings: Dict[int, Mapping] = {}

    @property
    def name(self) -> str:
        return f"mmio[{self.engine.name}]"

    def write_file(self, thread: SimThread, name: str, data: bytes) -> BackingFile:
        file = self.allocator.create(name, len(data))
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
