"""RocksDB-like persistent key-value store (paper Section 5).

An LSM tree of SSTs with a WAL and a skiplist memtable, exposing the
paper's three I/O modes through the :class:`~repro.kv.env.StorageEnv`
layer:

* ``direct-io``: explicit pread + user-space block cache (recommended),
* ``mmio[linux-mmap]``: reads through Linux mmap,
* ``mmio[aquila]``: reads through Aquila.

CPU cost per get/put follows Figure 7: a get burns 15.3 K cycles of
RocksDB logic with explicit I/O and 18.5 K under Aquila (extra TLB misses
from remapping); I/O and cache-management cycles are charged by the env
underneath.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

from repro.common import constants, units
from repro.fault.crash import CRASH
from repro.kv.env import MmioEnv, StorageEnv, Zeros
from repro.kv.lsm import LSMTree
from repro.kv.memtable import TOMBSTONE, Memtable
from repro.mmio.aquila import AquilaEngine
from repro.mmio.files import BackingFile
from repro.sim.executor import SimThread

#: Scaled memtable size: RocksDB's 64 MB write buffer at the default
#: 1/1024 experiment scale.
DEFAULT_MEMTABLE_BYTES = 64 * units.KIB
DEFAULT_SST_BYTES = 64 * units.KIB


class RocksDB:
    """LSM key-value store with pluggable storage env."""

    def __init__(
        self,
        env: StorageEnv,
        memtable_bytes: int = DEFAULT_MEMTABLE_BYTES,
        sst_bytes: int = DEFAULT_SST_BYTES,
        auto_compact: bool = True,
        wal_bytes: int = 16 * units.MIB,
    ) -> None:
        self.env = env
        self.memtable_bytes = memtable_bytes
        self.auto_compact = auto_compact
        self.lsm = LSMTree(env, sst_target_bytes=sst_bytes)
        self.memtable = Memtable()
        self.immutable: Optional[Memtable] = None
        self._wal_file: Optional[BackingFile] = None
        self._wal_offset = 0
        self._wal_capacity = wal_bytes
        #: Every WAL segment ever rotated in, in append order — the
        #: recovery "manifest" replay_wal walks after a crash.
        self.wal_files: List[BackingFile] = []
        self._flushes = 0
        self.gets = 0
        self.puts = 0
        # mmio modes pay two *miss-driven* surcharges the paper measures
        # in Figure 7 (an out-of-memory workload where nearly every get
        # faults): 11.8K cycles of block handling on freshly mapped data
        # (counted as cache management) and, under Aquila, 3.2K of extra
        # get CPU from TLB-shootdown pressure (18.5K vs 15.3K).  Warm
        # in-memory runs fault rarely and pay neither — which is why mmap
        # beats read/write in Figure 5(a).
        self._get_cpu = constants.ROCKSDB_GET_CPU_CYCLES
        self._mmio_engine = env.engine if isinstance(env, MmioEnv) else None
        self._aquila_tlb_surcharge = 0
        if self._mmio_engine is not None and isinstance(env.engine, AquilaEngine):
            self._aquila_tlb_surcharge = (
                constants.ROCKSDB_GET_CPU_AQUILA_CYCLES
                - constants.ROCKSDB_GET_CPU_CYCLES
            )

    # -- write path -------------------------------------------------------------

    def _wal_append(self, thread: SimThread, key: bytes, value: bytes) -> None:
        record = (
            len(key).to_bytes(2, "little")
            + key
            + len(value).to_bytes(4, "little")
            + value
            + zlib.crc32(key + value).to_bytes(4, "little")
        )
        if self._wal_file is None or self._wal_offset + len(record) > self._wal_capacity:
            self._wal_file = self.env.write_file(
                thread, f"wal/{len(self.wal_files):06d}.log", Zeros(self._wal_capacity)
            )
            self.wal_files.append(self._wal_file)
            self._wal_offset = 0
        self.env.append(thread, self._wal_file, self._wal_offset, record)
        self._wal_offset += len(record)

    def put(self, thread: SimThread, key: bytes, value: bytes) -> None:
        """Insert or update: WAL append + memtable insert."""
        self.puts += 1
        thread.clock.charge("app.put", constants.ROCKSDB_PUT_CPU_CYCLES)
        self._wal_append(thread, key, value)
        self.memtable.put(key, value)
        if self.memtable.approximate_bytes >= self.memtable_bytes:
            self._flush(thread)

    def delete(self, thread: SimThread, key: bytes) -> None:
        """Delete via tombstone."""
        self.put(thread, key, TOMBSTONE)

    def _flush(self, thread: SimThread) -> None:
        """Rotate the memtable into a new L0 SST."""
        self._flushes += 1
        self.immutable = self.memtable
        self.memtable = Memtable(seed=self._flushes)
        self.lsm.add_l0(thread, self.immutable.items())
        self.immutable = None
        if self.auto_compact:
            self.lsm.compact_all(thread)
        CRASH.point("rocksdb.flush")

    def flush(self, thread: SimThread) -> None:
        """Force the memtable to disk (benchmark phase boundary)."""
        if len(self.memtable):
            self._flush(thread)

    def compact_all(self, thread: SimThread) -> int:
        """Run all pending compactions."""
        return self.lsm.compact_all(thread)

    # -- crash recovery -----------------------------------------------------------

    def _try_read_wal_record(
        self, thread: SimThread, file: BackingFile, offset: int
    ) -> Optional[Tuple[bytes, bytes, int]]:
        """Parse one WAL record at ``offset``; None if torn or absent.

        Unwritten WAL space reads as zeros (segments are preallocated),
        so a zero key length marks the end of valid records; an overrun
        or checksum mismatch marks a torn tail.
        """
        end = file.size_bytes
        if offset + 2 > end:
            return None
        klen = int.from_bytes(self.env.read(thread, file, offset, 2), "little")
        if klen == 0 or offset + 2 + klen + 4 > end:
            return None
        key = self.env.read(thread, file, offset + 2, klen)
        vlen = int.from_bytes(
            self.env.read(thread, file, offset + 2 + klen, 4), "little"
        )
        record_end = offset + 2 + klen + 4 + vlen + 4
        if record_end > end:
            return None
        value = self.env.read(thread, file, offset + 2 + klen + 4, vlen)
        crc = int.from_bytes(self.env.read(thread, file, record_end - 4, 4), "little")
        if crc != zlib.crc32(key + value):
            return None
        return key, value, record_end - offset

    def replay_wal(self, thread: SimThread) -> int:
        """Rebuild the memtable from WAL segments after a crash.

        Segments are replayed in append order; each scan stops at the
        first incomplete record — the torn tail a crash can leave.
        Appends are sequential, so acknowledged records always form a
        prefix and the stop cannot drop acked data.  Replayed puts go
        straight to the memtable without re-appending to the WAL.

        Returns the number of records replayed.
        """
        replayed = 0
        for file in self.wal_files:
            offset = 0
            while True:
                record = self._try_read_wal_record(thread, file, offset)
                if record is None:
                    break
                key, value, length = record
                self.memtable.put(key, value)
                offset += length
                replayed += 1
            if file is self._wal_file:
                self._wal_offset = offset
        return replayed

    # -- read path ---------------------------------------------------------------

    def get(self, thread: SimThread, key: bytes) -> Optional[bytes]:
        """Point lookup: memtable, immutable memtable, then the LSM."""
        self.gets += 1
        thread.clock.charge("app.get", self._get_cpu)
        for table in (self.memtable, self.immutable):
            if table is None:
                continue
            value = table.get(key)
            if value is not None:
                return None if value == TOMBSTONE else value
        faults_before = (
            self._mmio_engine.faults if self._mmio_engine is not None else 0
        )
        value = self.lsm.get(thread, key)
        if self._mmio_engine is not None and self._mmio_engine.faults > faults_before:
            thread.clock.charge(
                "cache.user_processing", constants.ROCKSDB_MMIO_PROCESSING_CYCLES
            )
            if self._aquila_tlb_surcharge:
                thread.clock.charge("app.get", self._aquila_tlb_surcharge)
        return value

    def scan(self, thread: SimThread, start: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        """Range scan merged across memtables and SST levels."""
        thread.clock.charge("app.scan", self._get_cpu + 1200 * count)
        mem_entries = self.memtable.range_items(start, count)
        lsm_entries = self.lsm.scan(thread, start, count + len(mem_entries))
        merged: dict = {}
        for key, value in lsm_entries:
            merged.setdefault(key, value)
        for key, value in mem_entries:
            merged[key] = value
        out = sorted(
            (k, v) for k, v in merged.items() if v != TOMBSTONE
        )
        return out[:count]

    # -- stats ---------------------------------------------------------------------

    def stats(self) -> dict:
        """Operational counters for reporting."""
        return {
            "gets": self.gets,
            "puts": self.puts,
            "flushes": self._flushes,
            "compactions": self.lsm.compactions,
            "sst_files": self.lsm.total_files(),
            "sst_bytes": self.lsm.total_bytes(),
            "level_shape": self.lsm.level_shape(),
        }
