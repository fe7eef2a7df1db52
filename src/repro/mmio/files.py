"""Backing files for shared memory mappings.

Every mapping targets persistent storage (the paper considers only shared
file-backed mappings, Section 2.1).  A backing file answers one question
for the engines: which device byte offset holds file page *i*.

:class:`ExtentFile` — a contiguous region of a block device — is how
every stack places data, Aquila's included: its file-to-blob translation
over SPDK (Section 3.3) is not modelled, since no figure charges blob
placement.
"""

from __future__ import annotations

import itertools

from repro.common import units
from repro.common.errors import OutOfSpaceError
from repro.devices.block import BlockDevice


class BackingFile:
    """Abstract file that maps file pages to device byte offsets.

    ``file_id`` names the file within its stack; :class:`ExtentAllocator`
    numbers its files from 1 in creation order.
    """

    def __init__(self, file_id: int, name: str, size_bytes: int) -> None:
        self.file_id = file_id
        self.name = name
        self.size_bytes = size_bytes

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
        raise NotImplementedError


class ExtentFile(BackingFile):
    """A file stored as one contiguous device extent."""

    def __init__(
        self,
        file_id: int,
        name: str,
        device: BlockDevice,
        base_offset: int,
        size_bytes: int,
    ) -> None:
        super().__init__(file_id, name, size_bytes)
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

    Freed extents are discarded (TRIM, so they read as zeros) and reused
    first-fit, so long-running LSM compaction churn neither exhausts the
    device nor keeps dead pages in its store.  File ids count from 1 in
    creation order, so they never depend on what else the process built.
    """

    def __init__(self, device: BlockDevice, base_offset: int = 0) -> None:
        self.device = device
        self._next_offset = base_offset
        self._freed: list = []   # (offset, size) of released extents
        self._next_file_id = itertools.count(1)

    def create(self, name: str, size_bytes: int) -> ExtentFile:
        """Allocate an extent (reusing freed space first-fit)."""
        aligned = units.page_align_up(size_bytes)
        file_id = next(self._next_file_id)
        for index, (offset, size) in enumerate(self._freed):
            if size >= aligned:
                if size > aligned:
                    self._freed[index] = (offset + aligned, size - aligned)
                else:
                    del self._freed[index]
                return ExtentFile(file_id, name, self.device, offset, size_bytes)
        file = ExtentFile(file_id, name, self.device, self._next_offset, size_bytes)
        self._next_offset += aligned
        return file

    def free(self, file: ExtentFile) -> None:
        """Discard a file's extent and return it for reuse."""
        size = units.page_align_up(file.size_bytes)
        self.device.store.discard(file.base_offset, size)
        self._freed.append((file.base_offset, size))

    @property
    def bytes_allocated(self) -> int:
        """Device bytes handed out so far (high-water mark)."""
        return self._next_offset
