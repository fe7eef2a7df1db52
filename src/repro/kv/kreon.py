"""Kreon-like persistent key-value store (paper Section 5).

"Kreon is based on LSM-trees but instead of SSTs uses a log to store all
keys and values and a B-Tree index per level for indexing.  This approach
increases random accesses to devices but reduces I/O amplification and
CPU cycles in the common path.  Kreon provides a custom mmio path in the
Linux kernel, named kmmap, and places its data in a single file/device,
using a custom allocator for space management."

Structure:

* one **volume** file mapped with an mmio engine (kmmap or Aquila);
* a **value log** growing from the bottom of the volume — puts append
  ``[klen][key][vlen][value]`` records through the mapping;
* **L0**: an in-memory index of (key -> log offset);
* **L1..Ln**: immutable file-resident B+trees of (key -> log offset),
  produced by *spills* that merge only index entries — values are never
  rewritten (Kreon's low write-amplification property);
* gets walk L0 then each level's B-tree through the mapping (mmio page
  faults on index misses), then read the value from the log (another
  mmio access).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from repro.common import constants, units
from repro.common.errors import OutOfSpaceError
from repro.fault.crash import CRASH
from repro.kv.btree import FileBTree, PageAllocator, pages_needed
from repro.kv.memtable import TOMBSTONE
from repro.mmio.engine import Mapping, MmioEngine
from repro.mmio.files import BackingFile
from repro.sim.executor import SimThread

_KLEN = 2
_VLEN = 4
#: Trailing crc32 of ``key + value`` — lets recovery detect a torn tail.
_CRC = 4


class Kreon:
    """Memory-mapped LSM key-value store."""

    def __init__(
        self,
        engine: MmioEngine,
        volume: BackingFile,
        thread: SimThread,
        l0_max_entries: int = 4096,
        level_ratio: int = 10,
        max_levels: int = 5,
    ) -> None:
        self.engine = engine
        self.volume = volume
        self.mapping: Mapping = engine.mmap(thread, volume)
        self.allocator = PageAllocator(volume.size_pages)
        self.log_tail = 0
        self.l0: Dict[bytes, int] = {}
        self.l0_max_entries = l0_max_entries
        self.level_ratio = level_ratio
        self.levels: List[Optional[FileBTree]] = [None] * max_levels
        self.spills = 0
        self.gets = 0
        self.puts = 0

    # -- value log ---------------------------------------------------------------

    def _log_append(self, thread: SimThread, key: bytes, value: bytes) -> int:
        record = (
            len(key).to_bytes(_KLEN, "little")
            + key
            + len(value).to_bytes(_VLEN, "little")
            + value
            + zlib.crc32(key + value).to_bytes(_CRC, "little")
        )
        offset = self.log_tail
        limit = self.allocator.low_water_page * units.PAGE_SIZE
        if offset + len(record) > limit:
            raise OutOfSpaceError("value log collided with index pages")
        self.mapping.store(thread, offset, record)
        self.log_tail += len(record)
        return offset

    def _log_read(self, thread: SimThread, offset: int) -> Tuple[bytes, bytes]:
        header = self.mapping.load(thread, offset, _KLEN)
        klen = int.from_bytes(header, "little")
        key = self.mapping.load(thread, offset + _KLEN, klen)
        vlen_raw = self.mapping.load(thread, offset + _KLEN + klen, _VLEN)
        vlen = int.from_bytes(vlen_raw, "little")
        value = self.mapping.load(thread, offset + _KLEN + klen + _VLEN, vlen)
        return key, value

    # -- write path -----------------------------------------------------------------

    def put(self, thread: SimThread, key: bytes, value: bytes) -> None:
        """Append to the log, index in L0, spill when L0 fills."""
        self.puts += 1
        thread.clock.charge("app.put", constants.KREON_PUT_CPU_CYCLES)
        offset = self._log_append(thread, key, value)
        self.l0[key] = offset
        if len(self.l0) >= self.l0_max_entries:
            self.spill(thread)

    def delete(self, thread: SimThread, key: bytes) -> None:
        """Delete via a tombstone record in the log."""
        self.put(thread, key, TOMBSTONE)

    def spill(self, thread: SimThread) -> None:
        """Merge L0 into L1 (and cascade if a level overflows).

        Spills merge *index entries only*; values stay in the log.  Index
        pages grow down towards the log, so a spill that might reach the
        log tail raises ``OutOfSpaceError`` before it changes anything.
        """
        if not self.l0:
            return
        lowest_page = self.allocator.low_water_page - self._spill_page_bound()
        if lowest_page * units.PAGE_SIZE < self.log_tail:
            raise OutOfSpaceError("spill's index pages would overwrite the value log")
        self.spills += 1
        entries = sorted(self.l0.items())
        self.l0 = {}
        self._merge_into_level(thread, 0, entries)

    def _spill_page_bound(self) -> int:
        """Most index pages the next spill can write, cascades included.

        Uses tree metadata only, no mmio: each merge holds at most the
        sum of its inputs, so the bound never undercounts.
        """
        count = len(self.l0)
        key_len = max(map(len, self.l0))
        pages = 0
        for level_index, tree in enumerate(self.levels):
            if tree is not None:
                count += tree.entry_count
                key_len = max(key_len, tree.max_key_len)
            pages += pages_needed(count, key_len)
            if count <= self.l0_max_entries * (self.level_ratio ** (level_index + 1)):
                break
        return pages

    def _merge_into_level(
        self, thread: SimThread, level_index: int, new_entries: List[Tuple[bytes, int]]
    ) -> None:
        target = self.levels[level_index]
        if target is not None:
            merged: Dict[bytes, int] = dict(target.items(thread))
            merged.update(new_entries)   # newer entries win
            entries = sorted(merged.items())
        else:
            entries = new_entries
        tree = FileBTree.build(thread, self.mapping, self.allocator, entries)
        self.levels[level_index] = tree
        # Cascade if this level exceeds its share.
        capacity = self.l0_max_entries * (self.level_ratio ** (level_index + 1))
        if tree.entry_count > capacity and level_index + 1 < len(self.levels):
            spilled = list(tree.items(thread))
            self.levels[level_index] = None
            self._merge_into_level(thread, level_index + 1, spilled)

    # -- read path -------------------------------------------------------------------

    def get(self, thread: SimThread, key: bytes) -> Optional[bytes]:
        """L0 probe, then per-level B-tree walks, then a log read."""
        self.gets += 1
        thread.clock.charge("app.get", constants.KREON_GET_CPU_CYCLES)
        offset = self.l0.get(key)
        if offset is None:
            for tree in self.levels:
                if tree is None:
                    continue
                offset = tree.lookup(thread, key)
                if offset is not None:
                    break
        if offset is None:
            return None
        stored_key, value = self._log_read(thread, offset)
        if stored_key != key:
            return None
        return None if value == TOMBSTONE else value

    def scan(self, thread: SimThread, start: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        """Range scan: merge index cursors, then random log reads."""
        thread.clock.charge("app.scan", constants.KREON_SCAN_NEXT_CPU_CYCLES * count)
        candidates: Dict[bytes, int] = {}
        for tree in reversed(self.levels):
            if tree is None:
                continue
            for key, offset in tree.scan_from(thread, start, count * 2):
                candidates[key] = offset
        for key, offset in self.l0.items():
            if key >= start:
                candidates[key] = offset
        out: List[Tuple[bytes, bytes]] = []
        for key in sorted(candidates):
            stored_key, value = self._log_read(thread, candidates[key])
            if value != TOMBSTONE:
                out.append((key, value))
            if len(out) >= count:
                break
        return out

    def msync(self, thread: SimThread) -> int:
        """Persist the volume (Kreon's CoW msync via the engine)."""
        written = self.mapping.msync(thread)
        CRASH.point("kreon.msync")
        return written

    # -- crash recovery ----------------------------------------------------------------

    def _try_read_record(
        self, thread: SimThread, offset: int
    ) -> Optional[Tuple[bytes, bytes, int]]:
        """Parse one log record at ``offset``; None if torn or absent.

        A record is rejected when its header runs past the volume, its
        key length is zero (unwritten space reads as zeros), or the
        trailing checksum does not match — the signature of a torn
        write at the log tail.
        """
        end = self.volume.size_bytes
        if offset + _KLEN > end:
            return None
        klen = int.from_bytes(self.mapping.load(thread, offset, _KLEN), "little")
        if klen == 0 or offset + _KLEN + klen + _VLEN > end:
            return None
        key = self.mapping.load(thread, offset + _KLEN, klen)
        vlen = int.from_bytes(
            self.mapping.load(thread, offset + _KLEN + klen, _VLEN), "little"
        )
        record_end = offset + _KLEN + klen + _VLEN + vlen + _CRC
        if record_end > end:
            return None
        value = self.mapping.load(thread, offset + _KLEN + klen + _VLEN, vlen)
        crc = int.from_bytes(
            self.mapping.load(thread, offset + _KLEN + klen + _VLEN + vlen, _CRC),
            "little",
        )
        if crc != zlib.crc32(key + value):
            return None
        return key, value, record_end - offset

    def recover(self, thread: SimThread) -> int:
        """Rebuild volatile state from the durable value log after a crash.

        Re-indexes every complete record from the start of the log and
        stops at the first torn/unwritten record.  Log appends are
        strictly sequential, so acknowledged-durable records always
        form a prefix of the log: stopping at the tear can only drop
        records that were never acknowledged as durable.

        Returns the number of records recovered.
        """
        self.l0 = {}
        self.levels = [None] * len(self.levels)
        # Pre-crash index pages are untrusted after recovery; spills
        # rebuild every level from the re-indexed log.
        self.allocator = PageAllocator(self.volume.size_pages)
        offset = 0
        recovered = 0
        while True:
            record = self._try_read_record(thread, offset)
            if record is None:
                break
            key, _value, length = record
            self.l0[key] = offset
            offset += length
            recovered += 1
        self.log_tail = offset
        return recovered

    def stats(self) -> dict:
        """Operational counters for reporting."""
        return {
            "gets": self.gets,
            "puts": self.puts,
            "spills": self.spills,
            "log_bytes": self.log_tail,
            "index_pages": len(self.allocator.allocated),
            "levels": [
                tree.entry_count if tree is not None else 0 for tree in self.levels
            ],
        }
