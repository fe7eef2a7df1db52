"""Static Sorted Tables: RocksDB's on-disk file format (paper Section 5).

"[RocksDB] is based on LSM-trees, with each level organized in fixed-size
files (64MB by default), named Static-Sorted-Tables (SSTs)."

Layout (simplified BlockBasedTable)::

    [data block 0][data block 1]...[filter block][index block][footer]

* data blocks: ~4 KiB of length-prefixed sorted entries;
* filter block: a serialized bloom filter over all keys;
* index block: (last_key, offset, length) per data block;
* footer: offsets/lengths of the filter and index blocks.

The *read path* charges real I/O only for the data block: index and
filter blocks are pinned in memory at table-open time (RocksDB's
``cache_index_and_filter_blocks=false`` default), which is also what the
paper's cycle breakdown assumes — per-get I/O is a single 4 KB block read.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

from repro.common import units
from repro.kv.bloom import BloomFilter
from repro.kv.env import StorageEnv
from repro.kv.memtable import TOMBSTONE
from repro.mmio.files import BackingFile
from repro.sim.executor import SimThread

DATA_BLOCK_SIZE = units.PAGE_SIZE
_FOOTER = struct.Struct("<QQQQ")   # filter_off, filter_len, index_off, index_len
_ENTRY = struct.Struct("<HI")      # klen, vlen


def _encode_entry(key: bytes, value: bytes) -> bytes:
    return _ENTRY.pack(len(key), len(value)) + key + value


def _decode_entries(block: bytes) -> Iterator[Tuple[bytes, bytes]]:
    pos = 0
    while pos + _ENTRY.size <= len(block):
        klen, vlen = _ENTRY.unpack_from(block, pos)
        if klen == 0 and vlen == 0:
            return
        pos += _ENTRY.size
        key = block[pos : pos + klen]
        pos += klen
        value = block[pos : pos + vlen]
        pos += vlen
        yield (key, value)


class SSTBuilder:
    """Serializes sorted entries into SST bytes."""

    def __init__(self, block_size: int = DATA_BLOCK_SIZE) -> None:
        self.block_size = block_size
        self._blocks: List[bytes] = []
        self._current = bytearray()
        self._index: List[Tuple[bytes, int, int]] = []   # (last_key, off, len)
        self._keys: List[bytes] = []
        self._last_key: Optional[bytes] = None
        self._first_key: Optional[bytes] = None
        self.entries = 0

    def add(self, key: bytes, value: bytes) -> None:
        """Append one entry; keys must arrive in strictly increasing order."""
        if self._last_key is not None and key <= self._last_key:
            raise ValueError("SST keys must be strictly increasing")
        if self._first_key is None:
            self._first_key = key
        encoded = _encode_entry(key, value)
        if len(self._current) + len(encoded) > self.block_size and self._current:
            self._finish_block()
        self._current.extend(encoded)
        self._last_key = key
        self._keys.append(key)
        self.entries += 1

    def _finish_block(self) -> None:
        # Pad each data block to the block size so blocks are page-aligned
        # on the device (direct I/O requirement).
        block = bytes(self._current).ljust(self.block_size, b"\x00")
        offset = len(self._blocks) * self.block_size
        self._blocks.append(block)
        self._index.append((self._last_key, offset, self.block_size))
        self._current = bytearray()

    def finish(self) -> bytes:
        """Produce the complete SST file image."""
        if self._current:
            self._finish_block()
        data = b"".join(self._blocks)
        bloom = BloomFilter(max(1, len(self._keys)))
        bloom.add_all(self._keys)
        filter_block = bloom.to_bytes()
        index_block = self._encode_index()
        footer = _FOOTER.pack(
            len(data), len(filter_block), len(data) + len(filter_block), len(index_block)
        )
        return data + filter_block + index_block + footer

    def _encode_index(self) -> bytes:
        parts = [struct.pack("<I", len(self._index))]
        for last_key, offset, length in self._index:
            parts.append(struct.pack("<HQI", len(last_key), offset, length))
            parts.append(last_key)
        return b"".join(parts)

    @property
    def first_key(self) -> Optional[bytes]:
        """Smallest key added so far."""
        return self._first_key

    @property
    def last_key(self) -> Optional[bytes]:
        """Largest key added so far."""
        return self._last_key

    @property
    def size_bytes(self) -> int:
        """Approximate current file size (flush-rotation trigger)."""
        return (len(self._blocks) + 1) * self.block_size


def _decode_index(block: bytes) -> List[Tuple[bytes, int, int]]:
    (count,) = struct.unpack_from("<I", block, 0)
    pos = 4
    index = []
    for _ in range(count):
        klen, offset, length = struct.unpack_from("<HQI", block, pos)
        pos += struct.calcsize("<HQI")
        key = block[pos : pos + klen]
        pos += klen
        index.append((key, offset, length))
    return index


class SSTable:
    """An opened SST: pinned index + filter, on-demand data blocks."""

    def __init__(
        self,
        env: StorageEnv,
        file: BackingFile,
        thread: SimThread,
        first_key: bytes,
        last_key: bytes,
    ) -> None:
        self.env = env
        self.file = file
        self.first_key = first_key
        self.last_key = last_key
        footer_off = file.size_bytes - _FOOTER.size
        footer = env.read(thread, file, footer_off, _FOOTER.size)
        filter_off, filter_len, index_off, index_len = _FOOTER.unpack(footer)
        self._bloom = BloomFilter.from_bytes(
            env.read(thread, file, filter_off, filter_len)
        )
        self._index = _decode_index(env.read(thread, file, index_off, index_len))
        self._index_keys = [entry[0] for entry in self._index]
        self.block_reads = 0
        self.bloom_negatives = 0

    def overlaps(self, first: bytes, last: bytes) -> bool:
        """Whether this table's range intersects [first, last]."""
        return not (self.last_key < first or last < self.first_key)

    def get(self, thread: SimThread, key: bytes) -> Optional[bytes]:
        """Point lookup: bloom check, index search, one block read."""
        if not self._bloom.may_contain(key):
            self.bloom_negatives += 1
            return None
        slot = bisect_left(self._index_keys, key)
        if slot >= len(self._index):
            return None
        _, offset, length = self._index[slot]
        block = self.env.read(thread, self.file, offset, length)
        self.block_reads += 1
        for entry_key, value in _decode_entries(block):
            if entry_key == key:
                return value
            if entry_key > key:
                return None
        return None

    def scan_from(self, thread: SimThread, start: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        """Up to ``count`` entries with key >= ``start``, in order."""
        slot = bisect_left(self._index_keys, start)
        out: List[Tuple[bytes, bytes]] = []
        while slot < len(self._index) and len(out) < count:
            _, offset, length = self._index[slot]
            block = self.env.read(thread, self.file, offset, length)
            self.block_reads += 1
            for entry_key, value in _decode_entries(block):
                if entry_key >= start and len(out) < count:
                    out.append((entry_key, value))
            slot += 1
        return out

    def iterate_all(self, thread: SimThread) -> Iterator[Tuple[bytes, bytes]]:
        """Full sequential scan (compaction input)."""
        for _, offset, length in self._index:
            block = self.env.read(thread, self.file, offset, length)
            self.block_reads += 1
            yield from _decode_entries(block)


def build_sst(
    env: StorageEnv,
    thread: SimThread,
    name: str,
    entries: Iterator[Tuple[bytes, bytes]],
    drop_tombstones: bool = False,
) -> Optional[SSTable]:
    """Write sorted ``entries`` into a new SST; None when nothing to write."""
    builder = SSTBuilder()
    for key, value in entries:
        if drop_tombstones and value == TOMBSTONE:
            continue
        builder.add(key, value)
    if builder.entries == 0:
        return None
    data = builder.finish()
    file = env.write_file(thread, name, data)
    return SSTable(env, file, thread, builder.first_key, builder.last_key)
