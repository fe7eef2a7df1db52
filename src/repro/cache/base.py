"""Shared cache-page record used by all DRAM cache implementations."""

from __future__ import annotations

from typing import Optional, Set

from typing import TYPE_CHECKING

if TYPE_CHECKING:   # break the cache <-> mmio import cycle
    from repro.mmio.files import BackingFile


class CachePage:
    """One resident page of file data.

    ``mapped_vpns`` is the full reverse mapping (which virtual pages point
    at this frame) — FastMap-style, so eviction can tear down exactly the
    affected PTEs (paper Section 7.2).  ``owner_core`` records which
    per-core dirty tree holds the page while dirty.
    """

    __slots__ = ("file", "file_page", "key", "frame", "dirty", "mapped_vpns", "owner_core")

    def __init__(self, file: "BackingFile", file_page: int, frame: int) -> None:
        self.file = file
        self.file_page = file_page
        #: Cache key: (file id, file page).  Built once; the caches index
        #: their maps and LRU by this same tuple.
        self.key = (file.file_id, file_page)
        self.frame = frame
        self.dirty = False
        self.mapped_vpns: Set[int] = set()
        self.owner_core: Optional[int] = None

    @property
    def device_offset(self) -> int:
        """Device byte offset of this page's data."""
        return self.file.device_offset(self.file_page)

    def __repr__(self) -> str:
        flag = "D" if self.dirty else "C"
        return f"CachePage(file={self.file.file_id}, page={self.file_page}, {flag})"
