"""Backing files for shared memory mappings.

Every mapping targets persistent storage (the paper considers only shared
file-backed mappings, Section 2.1).  A backing file answers one question
for the engines: which device byte offset holds file page *i*.

* :class:`ExtentFile` — a contiguous region of a block device; how Linux
  experiments and Kreon (single file/device with its own allocator) place
  data.
* :class:`BlobFile` — an SPDK blob; how Aquila places files over NVMe via
  its file-to-blob translation (Section 3.3).
"""

from __future__ import annotations

import itertools

from repro.common import units
from repro.common.errors import OutOfSpaceError
from repro.devices.block import BlockDevice
from repro.devices.blobstore import Blobstore


class BackingFile:
    """Abstract file that maps file pages to device byte offsets."""

    _ids = itertools.count(1)

    def __init__(self, name: str, size_bytes: int) -> None:
        self.file_id = next(BackingFile._ids)
        self.name = name
        self.size_bytes = size_bytes

    @classmethod
    def reset_ids(cls) -> None:
        """Restart file-id assignment (reproducible back-to-back runs only)."""
        cls._ids = itertools.count(1)

    def __hash__(self) -> int:
        # Identity hashing would make hash-striped structures (the lock-free
        # page table's atomic stripes, cache shards) depend on object
        # *addresses*: two otherwise-identical simulations would see
        # different stripe collisions.  Hash by stable file identity so
        # repeat runs contend on exactly the same stripes.  Equality stays
        # identity-based: distinct live files always have distinct ids.
        return hash((self.file_id, self.name))

    @property
    def size_pages(self) -> int:
        """File length in whole 4 KiB pages."""
        return units.pages(self.size_bytes)

    @property
    def device(self) -> BlockDevice:
        """The device holding this file's data."""
        raise NotImplementedError

    def device_offset(self, page_index: int) -> int:
        """Device byte offset of file page ``page_index``."""
        raise NotImplementedError

    def contiguous_run(self, page_index: int, max_pages: int) -> int:
        """How many file pages starting at ``page_index`` are device-contiguous.

        Lets engines merge adjacent pages into one large I/O (readahead,
        sorted writeback).
        """
        run = 1
        base = self.device_offset(page_index)
        limit = min(max_pages, self.size_pages - page_index)
        while run < limit:
            if self.device_offset(page_index + run) != base + run * units.PAGE_SIZE:
                break
            run += 1
        return run


class ExtentFile(BackingFile):
    """A file stored as one contiguous device extent."""

    def __init__(
        self, name: str, device: BlockDevice, base_offset: int, size_bytes: int
    ) -> None:
        super().__init__(name, size_bytes)
        if base_offset % units.PAGE_SIZE != 0:
            raise ValueError("extent base must be page-aligned")
        if base_offset + size_bytes > device.store.capacity_bytes:
            raise OutOfSpaceError(
                f"extent [{base_offset}, +{size_bytes}) beyond device capacity"
            )
        self._device = device
        self.base_offset = base_offset

    @property
    def device(self) -> BlockDevice:
        return self._device

    def device_offset(self, page_index: int) -> int:
        offset = page_index * units.PAGE_SIZE
        # ``0 <= page_index < size_pages``, without the property call.
        if page_index < 0 or offset >= self.size_bytes:
            raise OutOfSpaceError(f"page {page_index} beyond file {self.name}")
        return self.base_offset + offset

    def contiguous_run(self, page_index: int, max_pages: int) -> int:
        return min(max_pages, self.size_pages - page_index)


class ExtentAllocator:
    """Doles out page-aligned extents of a device to :class:`ExtentFile` s.

    Freed extents are reused first-fit, so long-running LSM compaction
    churn does not exhaust the device.
    """

    def __init__(self, device: BlockDevice, base_offset: int = 0) -> None:
        self.device = device
        self._next_offset = base_offset
        self._freed: list = []   # (offset, size) of released extents

    def create(self, name: str, size_bytes: int) -> ExtentFile:
        """Allocate an extent (reusing freed space first-fit)."""
        aligned = units.page_align_up(size_bytes)
        for index, (offset, size) in enumerate(self._freed):
            if size >= aligned:
                if size > aligned:
                    self._freed[index] = (offset + aligned, size - aligned)
                else:
                    del self._freed[index]
                return ExtentFile(name, self.device, offset, size_bytes)
        file = ExtentFile(name, self.device, self._next_offset, size_bytes)
        self._next_offset += aligned
        return file

    def free(self, file: ExtentFile) -> None:
        """Return a file's extent for reuse."""
        self._freed.append((file.base_offset, units.page_align_up(file.size_bytes)))

    @property
    def bytes_allocated(self) -> int:
        """Device bytes handed out so far (high-water mark)."""
        return self._next_offset


class BlobFile(BackingFile):
    """A file backed by an SPDK blob (Aquila's file-to-blob translation)."""

    def __init__(self, name: str, blobstore: Blobstore, blob_id: int, size_bytes: int) -> None:
        super().__init__(name, size_bytes)
        self.blobstore = blobstore
        self.blob_id = blob_id
        if blobstore.get(blob_id).size_bytes < size_bytes:
            blobstore.resize(blob_id, size_bytes)

    @classmethod
    def create(cls, name: str, blobstore: Blobstore, size_bytes: int) -> "BlobFile":
        """Create a fresh blob of ``size_bytes`` and wrap it as a file."""
        blob_id = blobstore.create(size_bytes)
        blobstore.set_xattr(blob_id, "name", name.encode())
        return cls(name, blobstore, blob_id, size_bytes)

    @property
    def device(self) -> BlockDevice:
        return self.blobstore.device

    def device_offset(self, page_index: int) -> int:
        if not 0 <= page_index < self.size_pages:
            raise OutOfSpaceError(f"page {page_index} beyond file {self.name}")
        return self.blobstore.device_offset(self.blob_id, page_index * units.PAGE_SIZE)
