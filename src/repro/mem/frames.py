"""Physical frame pool: the DRAM that backs I/O caches.

Frames are 4 KiB and carry **real contents** so that the whole stack moves
actual bytes (DESIGN.md Section 4, item 2).  Each frame belongs to a NUMA
node; Aquila's two-level freelist cares about that locality.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.common import units
from repro.common.errors import OutOfMemoryError

ZERO_PAGE = bytes(units.PAGE_SIZE)


class FramePool:
    """A fixed pool of physical 4 KiB frames striped across NUMA nodes."""

    def __init__(self, total_frames: int, numa_nodes: int = 2) -> None:
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        if numa_nodes <= 0:
            raise ValueError("numa_nodes must be positive")
        self.total_frames = total_frames
        self.numa_nodes = numa_nodes
        self._data: Dict[int, bytes] = {}
        self._allocated: List[bool] = [False] * total_frames

    def grow(self, additional_frames: int) -> List[int]:
        """Extend the pool (dynamic cache resize); returns the new frame ids.

        New frames stripe onto nodes the same way (``node_of`` is computed
        from the *current* size, so existing assignments stay stable only
        within a node-striping epoch; the freelist re-derives node
        membership at insertion time).
        """
        if additional_frames <= 0:
            raise ValueError("additional_frames must be positive")
        first = self.total_frames
        self.total_frames += additional_frames
        self._allocated.extend([False] * additional_frames)
        return list(range(first, self.total_frames))

    def shrink_frames(self, frames: List[int]) -> None:
        """Retire specific (free) frames from the pool.

        Frames must be unallocated.  Retired ids are left as permanent
        holes (marked allocated so nothing hands them out again).
        """
        for frame in frames:
            self._check(frame)
            if self._allocated[frame]:
                raise OutOfMemoryError(f"cannot retire allocated frame {frame}")
            self._allocated[frame] = True
            self._data.pop(frame, None)

    def node_of(self, frame: int) -> int:
        """NUMA node owning ``frame`` (frames striped in contiguous halves)."""
        self._check(frame)
        per_node = (self.total_frames + self.numa_nodes - 1) // self.numa_nodes
        return min(frame // per_node, self.numa_nodes - 1)

    def frames_of_node(self, node: int) -> List[int]:
        """All frame ids on ``node``."""
        return [f for f in range(self.total_frames) if self.node_of(f) == node]

    def _check(self, frame: int) -> None:
        # Hot callers test the range inline and call this only to raise.
        if not 0 <= frame < self.total_frames:
            raise OutOfMemoryError(f"frame {frame} out of range")

    def mark_allocated(self, frame: int) -> None:
        """Record that ``frame`` is in use (freelist bookkeeping)."""
        if not 0 <= frame < self.total_frames:
            self._check(frame)
        self._allocated[frame] = True

    def mark_free(self, frame: int) -> None:
        """Record that ``frame`` is free and scrub its contents."""
        if not 0 <= frame < self.total_frames:
            self._check(frame)
        self._allocated[frame] = False
        self._data.pop(frame, None)

    def mark_free_many(self, frames: Iterable[int]) -> None:
        """``mark_free`` for each of ``frames`` (reclaim frees in batches)."""
        allocated = self._allocated
        data = self._data
        total = self.total_frames
        for frame in frames:
            if not 0 <= frame < total:
                raise OutOfMemoryError(f"frame {frame} out of range")
            allocated[frame] = False
            data.pop(frame, None)

    def is_allocated(self, frame: int) -> bool:
        """Whether ``frame`` is currently in use."""
        self._check(frame)
        return self._allocated[frame]

    def allocated_count(self) -> int:
        """Number of frames currently in use."""
        return sum(1 for used in self._allocated if used)

    # -- frame contents ------------------------------------------------------

    def read(self, frame: int) -> bytes:
        """The 4 KiB contents of ``frame`` (zeros if never written)."""
        if not 0 <= frame < self.total_frames:
            self._check(frame)
        return self._data.get(frame, ZERO_PAGE)

    def write(self, frame: int, data: bytes) -> None:
        """Replace the contents of ``frame``."""
        if not 0 <= frame < self.total_frames:
            self._check(frame)
        if len(data) != units.PAGE_SIZE:
            raise ValueError(f"frame write must be {units.PAGE_SIZE} bytes")
        self._data[frame] = bytes(data)

    def write_partial(self, frame: int, offset: int, data: bytes) -> None:
        """Overwrite ``data`` at byte ``offset`` within ``frame``."""
        self._check(frame)
        if offset < 0 or offset + len(data) > units.PAGE_SIZE:
            raise ValueError("partial write out of page bounds")
        page = bytearray(self.read(frame))
        page[offset : offset + len(data)] = data
        self._data[frame] = bytes(page)

    def read_partial(self, frame: int, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at byte ``offset`` within ``frame``."""
        if not 0 <= frame < self.total_frames:
            self._check(frame)
        if offset < 0 or offset + nbytes > units.PAGE_SIZE:
            raise ValueError("partial read out of page bounds")
        return self._data.get(frame, ZERO_PAGE)[offset : offset + nbytes]
