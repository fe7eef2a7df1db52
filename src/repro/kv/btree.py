"""File-resident B+tree index (Kreon's per-level index, paper Section 5).

Kreon "uses a log to store all keys and values and a B-Tree index per
level for indexing".  The index nodes live *inside the memory-mapped
volume*, so every node visited during a lookup is an mmio access — a
page-cache hit costs nothing, a miss costs a page fault.  That is exactly
the access pattern the paper exercises with kmmap/Aquila.

Trees are immutable once built (Kreon levels are written by spills), so
construction is a bottom-up bulk load of sorted (key, log-pointer) pairs.
Node layout (one 4 KiB page per node)::

    [u8 is_leaf][u16 count] then count * ([u16 klen][key][u64 pointer])

For leaves the pointer is a value-log offset; for internal nodes it is the
page number of the child.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common import units
from repro.mmio.engine import Mapping
from repro.sim.executor import SimThread

_HEADER = struct.Struct("<BH")
_ENTRY_FIXED = struct.Struct("<HQ")

NODE_SIZE = units.PAGE_SIZE

#: A decoded node's entries, immutable because callers keep them.
Entries = Tuple[Tuple[bytes, int], ...]
#: ``(is_leaf, entries, keys)`` of one decoded node.
Node = Tuple[bool, Entries, Tuple[bytes, ...]]


def _encode_node(is_leaf: bool, entries: List[Tuple[bytes, int]]) -> bytes:
    parts = [_HEADER.pack(1 if is_leaf else 0, len(entries))]
    for key, pointer in entries:
        parts.append(_ENTRY_FIXED.pack(len(key), pointer))
        parts.append(key)
    blob = b"".join(parts)
    if len(blob) > NODE_SIZE:
        raise ValueError("node overflow")
    return blob.ljust(NODE_SIZE, b"\x00")


def _decode_node(blob: bytes) -> Tuple[bool, List[Tuple[bytes, int]]]:
    is_leaf, count = _HEADER.unpack_from(blob, 0)
    pos = _HEADER.size
    entries = []
    for _ in range(count):
        klen, pointer = _ENTRY_FIXED.unpack_from(blob, pos)
        pos += _ENTRY_FIXED.size
        key = bytes(blob[pos : pos + klen])
        pos += klen
        entries.append((key, pointer))
    return bool(is_leaf), entries


def node_capacity(key_len: int) -> int:
    """How many entries of ``key_len``-byte keys fit in one node."""
    per_entry = _ENTRY_FIXED.size + key_len
    return (NODE_SIZE - _HEADER.size) // per_entry


def default_fanout(max_key_len: int) -> int:
    """Fanout ``FileBTree.build`` uses for keys of at most ``max_key_len`` bytes."""
    return max(4, node_capacity(max_key_len))


def pages_needed(entry_count: int, max_key_len: int) -> int:
    """Index pages a default-fanout bulk load of ``entry_count`` entries writes."""
    fanout = default_fanout(max_key_len)
    pages = 0
    nodes = entry_count
    while nodes:
        nodes = -(-nodes // fanout)
        pages += nodes
        if nodes == 1:
            break
    return pages


class PageAllocator:
    """Allocates index pages from the top of the volume downward.

    Kreon manages its single file/device with a custom allocator
    (Section 5); the log grows from the bottom, index pages from the top.
    """

    def __init__(self, volume_pages: int) -> None:
        self._next = volume_pages - 1
        self.allocated: List[int] = []

    def allocate(self) -> int:
        """Next free index page (from the top)."""
        page = self._next
        self._next -= 1
        self.allocated.append(page)
        return page

    @property
    def low_water_page(self) -> int:
        """Lowest index page handed out (collision check vs the log)."""
        return self._next + 1


class FileBTree:
    """Immutable bulk-loaded B+tree stored in a mapping.

    Every node visit loads the node's full page through the mapping and
    counts in ``node_reads``, so the simulated accesses are those of a
    tree that parses each page it reads.  The host decodes a page only
    when its bytes differ from the ones this tree last decoded there:
    frames can change without a ``store`` through this tree (a direct
    cache-coherence write, index pages reused after ``recover``), so the
    memo is checked against the loaded bytes, never trusted by page.
    """

    def __init__(self, mapping: Mapping, root_page: Optional[int], height: int,
                 first_key: Optional[bytes], last_key: Optional[bytes],
                 entry_count: int, max_key_len: int = 0) -> None:
        self.mapping = mapping
        self.root_page = root_page
        self.height = height
        self.first_key = first_key
        self.last_key = last_key
        self.entry_count = entry_count
        self.max_key_len = max_key_len
        self.node_reads = 0
        # page -> (bytes last decoded there, decoded node); host-only.
        self._nodes: Dict[int, Tuple[bytes, Node]] = {}

    @classmethod
    def build(
        cls,
        thread: SimThread,
        mapping: Mapping,
        allocator: PageAllocator,
        sorted_entries: List[Tuple[bytes, int]],
        fanout: Optional[int] = None,
    ) -> "FileBTree":
        """Bulk-load ``sorted_entries`` (strictly increasing keys)."""
        if not sorted_entries:
            return cls(mapping, None, 0, None, None, 0)
        max_key_len = max(len(key) for key, _ in sorted_entries)
        if fanout is None:
            fanout = default_fanout(max_key_len)

        def write_level(entries: List[Tuple[bytes, int]], is_leaf: bool) -> List[Tuple[bytes, int]]:
            parents: List[Tuple[bytes, int]] = []
            for start in range(0, len(entries), fanout):
                chunk = entries[start : start + fanout]
                page = allocator.allocate()
                mapping.store(
                    thread, page * units.PAGE_SIZE, _encode_node(is_leaf, chunk)
                )
                parents.append((chunk[-1][0], page))
            return parents

        level = write_level(sorted_entries, is_leaf=True)
        height = 1
        while len(level) > 1:
            level = write_level(level, is_leaf=False)
            height += 1
        return cls(
            mapping,
            root_page=level[0][1],
            height=height,
            first_key=sorted_entries[0][0],
            last_key=sorted_entries[-1][0],
            entry_count=len(sorted_entries),
            max_key_len=max_key_len,
        )

    def _read_node(self, thread: SimThread, page: int) -> Node:
        """``(is_leaf, entries, keys)`` of ``page``: one full-page load,
        decoded only if its bytes differ from those last decoded here."""
        self.node_reads += 1
        blob = self.mapping.load(thread, page * units.PAGE_SIZE, NODE_SIZE)
        memo = self._nodes.get(page)
        if memo is not None and memo[0] == blob:
            return memo[1]
        is_leaf, entries = _decode_node(blob)
        node = (is_leaf, tuple(entries), tuple(map(itemgetter(0), entries)))
        self._nodes[page] = (blob, node)
        return node

    def lookup(self, thread: SimThread, key: bytes) -> Optional[int]:
        """Log-pointer for ``key`` or None (each node visit is mmio)."""
        if self.root_page is None:
            return None
        if self.first_key is not None and not self.first_key <= key <= self.last_key:
            return None
        page = self.root_page
        while True:
            is_leaf, entries, keys = self._read_node(thread, page)
            slot = bisect_left(keys, key)
            if is_leaf:
                if slot < len(keys) and keys[slot] == key:
                    return entries[slot][1]
                return None
            # Internal keys are the last key of each child: descend into
            # the first child whose last key >= the search key.
            if slot >= len(entries):
                return None
            page = entries[slot][1]

    def _leaf_pages(self, thread: SimThread) -> Iterator[Entries]:
        """All leaves left-to-right (spill input / scans).

        Depth-first with an explicit stack of pages still to visit,
        children pushed in reverse: nodes are read in recursive-walk
        order, each only when reached, so an early-stopping scan reads
        no further.
        """
        if self.root_page is None:
            return
        pending = [self.root_page]
        while pending:
            is_leaf, entries, _ = self._read_node(thread, pending.pop())
            if is_leaf:
                yield entries
            else:
                pending.extend(child for _, child in reversed(entries))

    def items(self, thread: SimThread) -> Iterator[Tuple[bytes, int]]:
        """All (key, pointer) pairs in key order."""
        for leaf in self._leaf_pages(thread):
            yield from leaf

    def scan_from(self, thread: SimThread, start: bytes, count: int) -> List[Tuple[bytes, int]]:
        """Up to ``count`` (key, pointer) pairs with key >= start."""
        out: List[Tuple[bytes, int]] = []
        for leaf in self._leaf_pages(thread):
            if leaf and leaf[-1][0] < start:
                continue
            for key, pointer in leaf:
                if key >= start:
                    out.append((key, pointer))
                    if len(out) >= count:
                        return out
        return out
