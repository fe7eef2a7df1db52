"""Leveled LSM tree over SSTs (the structure under RocksDB).

* L0 collects memtable flushes; files may overlap.
* L1..Ln are sorted runs of non-overlapping files; each level is
  ``level_ratio`` times larger than the previous.
* Compaction merges L0 (or an oversized Li) with the overlapping files of
  the next level, rewriting them — the source of RocksDB's I/O
  amplification that Kreon's log design avoids (paper Section 5).

Compaction runs synchronously when triggered; the paper measures read
paths with compaction quiesced ("Compactions ... take place in background
threads and they are optimized to issue large (1-2MB) I/O requests"), so
benchmarks call :meth:`compact_all` between load and measure phases.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

from repro.kv.env import StorageEnv
from repro.kv.memtable import TOMBSTONE
from repro.kv.sst import SSTable, build_sst
from repro.sim.executor import SimThread


def merge_sorted_unique(
    streams: List[Iterator[Tuple[bytes, bytes]]]
) -> Iterator[Tuple[bytes, bytes]]:
    """k-way merge; on duplicate keys the lowest stream index wins.

    Streams must be ordered newest-first so the freshest value survives.
    """
    heap: List[tuple] = []
    iters = [iter(s) for s in streams]
    for index, it in enumerate(iters):
        entry = next(it, None)
        if entry is not None:
            heapq.heappush(heap, (entry[0], index, entry[1]))
    last_key: Optional[bytes] = None
    while heap:
        key, index, value = heapq.heappop(heap)
        if key != last_key:
            yield (key, value)
            last_key = key
        nxt = next(iters[index], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], index, nxt[1]))


class LSMTree:
    """Levels of SSTs with leveled compaction."""

    def __init__(
        self,
        env: StorageEnv,
        sst_target_bytes: int,
        l0_compaction_trigger: int = 4,
        level_ratio: int = 10,
        max_levels: int = 7,
    ) -> None:
        self.env = env
        self.sst_target_bytes = sst_target_bytes
        self.l0_compaction_trigger = l0_compaction_trigger
        self.level_ratio = level_ratio
        self.levels: List[List[SSTable]] = [[] for _ in range(max_levels)]
        self._file_seq = 0
        self.compactions = 0
        self.bytes_compacted = 0

    def _next_name(self, level: int) -> str:
        self._file_seq += 1
        return f"sst/L{level}-{self._file_seq:06d}.sst"

    # -- reads ---------------------------------------------------------------

    def get(self, thread: SimThread, key: bytes) -> Optional[bytes]:
        """Search newest-to-oldest: L0 files newest first, then L1..Ln."""
        for table in reversed(self.levels[0]):
            if table.first_key <= key <= table.last_key:
                value = table.get(thread, key)
                if value is not None:
                    return None if value == TOMBSTONE else value
        for level in self.levels[1:]:
            table = self._find_in_sorted_level(level, key)
            if table is not None:
                value = table.get(thread, key)
                if value is not None:
                    return None if value == TOMBSTONE else value
        return None

    @staticmethod
    def _find_in_sorted_level(level: List[SSTable], key: bytes) -> Optional[SSTable]:
        lo, hi = 0, len(level) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            table = level[mid]
            if key < table.first_key:
                hi = mid - 1
            elif key > table.last_key:
                lo = mid + 1
            else:
                return table
        return None

    def scan(self, thread: SimThread, start: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        """Merged range scan across all levels."""
        per_level: List[List[Tuple[bytes, bytes]]] = []
        for table in reversed(self.levels[0]):
            per_level.append(table.scan_from(thread, start, count))
        for level in self.levels[1:]:
            collected: List[Tuple[bytes, bytes]] = []
            for table in level:
                if table.last_key < start:
                    continue
                collected.extend(table.scan_from(thread, start, count - len(collected)))
                if len(collected) >= count:
                    break
            per_level.append(collected)
        merged = list(merge_sorted_unique([iter(chunk) for chunk in per_level]))
        return [(k, v) for k, v in merged if v != TOMBSTONE][:count]

    # -- writes ----------------------------------------------------------------

    def add_l0(self, thread: SimThread, entries: Iterator[Tuple[bytes, bytes]]) -> Optional[SSTable]:
        """Flush a memtable into a new L0 file."""
        table = build_sst(self.env, thread, self._next_name(0), entries)
        if table is not None:
            self.levels[0].append(table)
        return table

    def needs_compaction(self) -> Optional[int]:
        """The lowest level that should compact, or None."""
        if len(self.levels[0]) >= self.l0_compaction_trigger:
            return 0
        for level in range(1, len(self.levels) - 1):
            if self._level_bytes(level) > self._level_capacity(level):
                return level
        return None

    def _level_bytes(self, level: int) -> int:
        return sum(t.file.size_bytes for t in self.levels[level])

    def _level_capacity(self, level: int) -> int:
        return self.sst_target_bytes * self.l0_compaction_trigger * (
            self.level_ratio ** (level - 1)
        ) if level >= 1 else self.sst_target_bytes * self.l0_compaction_trigger

    def compact_level(self, thread: SimThread, level: int) -> None:
        """Merge ``level`` into ``level + 1``."""
        self.compactions += 1
        upper = self.levels[level]
        if not upper:
            return
        first = min(t.first_key for t in upper)
        last = max(t.last_key for t in upper)
        lower = self.levels[level + 1]
        overlapping = [t for t in lower if t.overlaps(first, last)]
        keep = [t for t in lower if not t.overlaps(first, last)]

        # Newest first: L0 files newest-to-oldest, then the lower level.
        streams: List[Iterator[Tuple[bytes, bytes]]] = [
            t.iterate_all(thread) for t in reversed(upper)
        ] + [t.iterate_all(thread) for t in overlapping]
        drop_tombstones = level + 2 == len(self.levels) or not any(
            self.levels[level + 2 :]
        )

        merged = merge_sorted_unique(streams)
        new_tables = self._write_run(thread, level + 1, merged, drop_tombstones)

        for table in upper + overlapping:
            self.bytes_compacted += table.file.size_bytes
            self.env.delete_file(thread, table.file)
        self.levels[level] = []
        self.levels[level + 1] = sorted(keep + new_tables, key=lambda t: t.first_key)

    def _write_run(
        self,
        thread: SimThread,
        level: int,
        merged: Iterator[Tuple[bytes, bytes]],
        drop_tombstones: bool,
    ) -> List[SSTable]:
        """Split a merged stream into target-size SSTs."""
        from repro.kv.sst import SSTBuilder, SSTable as _SST

        tables: List[SSTable] = []
        builder = SSTBuilder()
        for key, value in merged:
            if drop_tombstones and value == TOMBSTONE:
                continue
            builder.add(key, value)
            if builder.size_bytes >= self.sst_target_bytes:
                tables.append(self._finish_builder(thread, level, builder))
                builder = SSTBuilder()
        if builder.entries:
            tables.append(self._finish_builder(thread, level, builder))
        return tables

    def _finish_builder(self, thread: SimThread, level: int, builder) -> SSTable:
        data = builder.finish()
        file = self.env.write_file(thread, self._next_name(level), data)
        return SSTable(self.env, file, thread, builder.first_key, builder.last_key)

    def compact_all(self, thread: SimThread) -> int:
        """Run compactions until no level needs one; returns count run."""
        runs = 0
        while True:
            level = self.needs_compaction()
            if level is None:
                return runs
            self.compact_level(thread, level)
            runs += 1

    # -- stats --------------------------------------------------------------------

    def total_files(self) -> int:
        """SST files across all levels."""
        return sum(len(level) for level in self.levels)

    def total_bytes(self) -> int:
        """Bytes across all SSTs."""
        return sum(self._level_bytes(level) for level in range(len(self.levels)))

    def level_shape(self) -> List[int]:
        """Files per level (debugging/reporting)."""
        return [len(level) for level in self.levels]
