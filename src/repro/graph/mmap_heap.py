"""Heap allocator over a memory-mapped file (paper Section 6.2).

"We convert all malloc/free calls of Ligra to allocate space over a
memory-mapped file on a fast storage device."  The heap extends the
application's address space over the device: allocations are bump-pointer
regions of one big mapping, and element accesses become mmio loads/stores
that fault and cache like any other mapped page.

:class:`DramHeap` is the paper's *DRAM-only* baseline (plain malloc): the
same interface with no engine underneath and zero access cost beyond the
CPU work the application charges itself.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple, Sequence, Tuple

from repro.common import units
from repro.common.errors import OutOfMemoryError
from repro.mmio.engine import Mapping
from repro.sim.executor import SimThread

_U64 = struct.Struct("<Q")


class LoadPlan(NamedTuple):
    """Where a list of array elements lives, for :meth:`HeapArray.load_run`.

    ``pages`` and ``offsets`` place the elements before the first
    out-of-range index (page and in-page byte offset on the heap);
    ``length`` counts every index, in range or not.
    """

    pages: List[int]
    offsets: List[int]
    length: int


class HeapArray:
    """A typed uint64 array living on a heap."""

    def __init__(self, heap: "MmapHeap", offset: int, length: int) -> None:
        self.heap = heap
        self.offset = offset
        self.length = length

    def read(self, thread: SimThread, index: int) -> int:
        """Element load (an mmio access on mapped heaps)."""
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} out of range {self.length}")
        raw = self.heap.load(thread, self.offset + index * 8, 8)
        return _U64.unpack(raw)[0]

    def write(self, thread: SimThread, index: int, value: int) -> None:
        """Element store."""
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} out of range {self.length}")
        self.heap.store(thread, self.offset + index * 8, _U64.pack(value))

    def read_range(self, thread: SimThread, start: int, count: int) -> List[int]:
        """Contiguous element loads (one mmio access per spanned page)."""
        if start < 0 or count < 0 or start + count > self.length:
            raise IndexError("range out of bounds")
        if count == 0:
            return []
        raw = self.heap.load(thread, self.offset + start * 8, count * 8)
        return list(struct.unpack(f"<{count}Q", raw))

    def load_plan(self, indices: Sequence[int]) -> LoadPlan:
        """Locate the elements at ``indices`` for :meth:`load_run`."""
        valid = len(indices)
        if valid and (min(indices) < 0 or max(indices) >= self.length):
            valid = next(k for k, i in enumerate(indices) if not 0 <= i < self.length)
        base = self.offset
        addresses = [base + i * 8 for i in indices[:valid]]
        return LoadPlan(
            [a >> units.PAGE_SHIFT for a in addresses],
            [a & (units.PAGE_SIZE - 1) for a in addresses],
            len(indices),
        )

    def load_run(
        self,
        thread: SimThread,
        plan: LoadPlan,
        index: int,
        pre_charge: Tuple[str, float],
        stop: int,
    ) -> List[int]:
        """Element loads from ``plan[index]`` on, until one reads ``stop``.

        The same as, element by element, ``thread.clock.charge(*pre_charge)``
        then :meth:`read`, stopping right after the first element equal
        to ``stop``: same charges, same order, same values, and an
        out-of-range index raises ``IndexError`` after its pre-charge.
        Returns the values read; the last equals ``stop`` unless the
        plan ran out first.
        """
        pages, offsets, length = plan
        values: List[int] = []
        if index < len(pages):
            raw = self.heap.load_run(
                thread, (pages, offsets), index, 8, pre_charge, _U64.pack(stop)
            )
            values = list(struct.unpack(f"<{len(raw)}Q", b"".join(raw)))
            index += len(values)
            if values[-1] == stop:
                return values
        if index < length:
            thread.clock.charge(*pre_charge)
            raise IndexError(f"index at plan position {index} out of range {self.length}")
        return values

    def fill(self, thread: SimThread, value: int) -> None:
        """Initialize every element (bulk stores, page at a time)."""
        encoded = _U64.pack(value)
        page_elems = units.PAGE_SIZE // 8
        for start in range(0, self.length, page_elems):
            count = min(page_elems, self.length - start)
            self.heap.store(thread, self.offset + start * 8, encoded * count)


class MmapHeap:
    """Bump allocator over one mapping."""

    def __init__(self, mapping: Mapping) -> None:
        self.mapping = mapping
        self._brk = 0

    @property
    def capacity_bytes(self) -> int:
        """Total heap capacity."""
        return self.mapping.size_bytes

    @property
    def allocated_bytes(self) -> int:
        """Bytes handed out so far."""
        return self._brk

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Allocate ``nbytes``; returns the heap offset."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        start = (self._brk + align - 1) // align * align
        if start + nbytes > self.capacity_bytes:
            raise OutOfMemoryError(
                f"heap exhausted: need {nbytes} at {start}, capacity "
                f"{self.capacity_bytes}"
            )
        self._brk = start + nbytes
        return start

    def alloc_array(self, length: int) -> HeapArray:
        """Allocate a uint64 array of ``length`` elements."""
        return HeapArray(self, self.alloc(length * 8), length)

    def load(self, thread: SimThread, offset: int, nbytes: int) -> bytes:
        """mmio load through the mapping."""
        return self.mapping.load(thread, offset, nbytes)

    def store(self, thread: SimThread, offset: int, data: bytes) -> None:
        """mmio store through the mapping."""
        self.mapping.store(thread, offset, data)

    def load_run(
        self,
        thread: SimThread,
        plan,
        index: int,
        nbytes: int,
        pre_charge: Tuple[str, float],
        stop: bytes,
    ) -> List[bytes]:
        """mmio load run through the mapping (``MmioEngine.load_run``)."""
        return self.mapping.load_run(thread, plan, index, nbytes, pre_charge, stop)


class DramHeap:
    """malloc/free baseline: plain memory, no I/O engine (Figure 6 DRAM bars)."""

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = capacity_bytes
        self._data = bytearray(capacity_bytes)
        self._brk = 0

    @property
    def allocated_bytes(self) -> int:
        """Bytes handed out so far."""
        return self._brk

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Allocate ``nbytes``; returns the heap offset."""
        start = (self._brk + align - 1) // align * align
        if start + nbytes > self.capacity_bytes:
            raise OutOfMemoryError("DRAM heap exhausted")
        self._brk = start + nbytes
        return start

    def alloc_array(self, length: int) -> HeapArray:
        """Allocate a uint64 array of ``length`` elements."""
        return HeapArray(self, self.alloc(length * 8), length)

    def load(self, thread: SimThread, offset: int, nbytes: int) -> bytes:
        """Plain DRAM read: no charged cost (caches hide it at this scale)."""
        return bytes(self._data[offset : offset + nbytes])

    def store(self, thread: SimThread, offset: int, data: bytes) -> None:
        """Plain DRAM write."""
        self._data[offset : offset + len(data)] = data

    def load_run(
        self,
        thread: SimThread,
        plan,
        index: int,
        nbytes: int,
        pre_charge: Tuple[str, float],
        stop: bytes,
    ) -> List[bytes]:
        """Plain DRAM loads with ``MmioEngine.load_run``'s contract.

        Each load pays only the caller's pre-charge; the run ends right
        after a load that reads ``stop``.
        """
        pages, offsets = plan
        charge = thread.clock.charge
        data = self._data
        values: List[bytes] = []
        for i in range(index, len(pages)):
            charge(*pre_charge)
            start = pages[i] * units.PAGE_SIZE + offsets[i]
            value = bytes(data[start : start + nbytes])
            values.append(value)
            if value == stop:
                break
        return values
