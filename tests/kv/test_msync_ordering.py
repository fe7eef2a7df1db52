"""Durability-ordering regressions: msync must not acknowledge early.

Two bugs this file pins down:

* Linux-style background writeback (``sync=False``) marks pages clean at
  *submission*, making them invisible to msync's dirty scan — but their
  device completions are still in flight.  msync must drain the queued
  completions before returning, or it acknowledges durability the device
  has not delivered yet.
* ``MmioEnv.append`` writes WAL bytes straight to the device, bypassing
  the engine cache.  A stale dirty cached page overlapping the appended
  range must be patched, or the next msync writes the stale frame back
  and silently clobbers acknowledged WAL data.
"""

import pytest

from repro.bench import setups
from repro.common import units
from repro.kv.env import MmioEnv
from repro.sim.executor import SimThread

PAGE = units.PAGE_SIZE


def _dirty_pages_until_writeback(engine, mapping, thread, file_pages):
    """Store to pages until the dirty-ratio writeback has fired."""
    limit = int(engine.cache.capacity_pages * engine.dirty_ratio)
    for page in range(file_pages):
        mapping.store(thread, page * PAGE, bytes([page % 251 + 1]) * PAGE)
        if engine._wb_inflight:
            return limit
    return limit


class TestMsyncDrainsBackgroundWriteback:
    def _stack(self):
        # NVMe: writes have real latency, so async completions queue up.
        return setups.make_linux_stack(
            "nvme", cache_pages=32, capacity_bytes=16 * units.MIB
        )

    def test_background_writeback_queues_completions(self):
        stack = self._stack()
        file = stack.allocator.create("wal", 64 * PAGE)
        thread = SimThread(core=0, tid=0)
        mapping = stack.engine.mmap(thread, file)
        _dirty_pages_until_writeback(stack.engine, mapping, thread, 64)
        assert stack.engine._wb_inflight, (
            "dirty-ratio writeback never fired: the regression scenario "
            "(clean-at-submission pages with pending completions) was not set up"
        )
        done_at = stack.engine._wb_inflight[file.file_id]
        assert done_at > thread.clock.now

    def test_msync_waits_for_queued_completions(self):
        stack = self._stack()
        file = stack.allocator.create("wal", 64 * PAGE)
        thread = SimThread(core=0, tid=0)
        mapping = stack.engine.mmap(thread, file)
        _dirty_pages_until_writeback(stack.engine, mapping, thread, 64)
        assert stack.engine._wb_inflight
        done_at = stack.engine._wb_inflight[file.file_id]

        mapping.msync(thread)

        # The inflight horizon is drained and the clock moved past it:
        # msync returned no earlier than the last queued completion.
        assert file.file_id not in stack.engine._wb_inflight
        assert thread.clock.now >= done_at

    def test_msync_idempotent_after_drain(self):
        stack = self._stack()
        file = stack.allocator.create("wal", 64 * PAGE)
        thread = SimThread(core=0, tid=0)
        mapping = stack.engine.mmap(thread, file)
        _dirty_pages_until_writeback(stack.engine, mapping, thread, 64)
        mapping.msync(thread)
        after_first = thread.clock.now
        mapping.msync(thread)
        # Nothing dirty and nothing inflight: the second msync is cheap
        # and must not rewind or re-wait.
        assert not stack.engine._wb_inflight
        assert thread.clock.now >= after_first

    def test_durable_bytes_match_after_msync(self):
        stack = self._stack()
        file = stack.allocator.create("wal", 64 * PAGE)
        thread = SimThread(core=0, tid=0)
        mapping = stack.engine.mmap(thread, file)
        payloads = {}
        for page in range(64):
            payload = bytes([page % 251 + 1]) * PAGE
            payloads[page] = payload
            mapping.store(thread, page * PAGE, payload)
        mapping.msync(thread)
        for page, payload in payloads.items():
            durable = stack.device.store.read(file.device_offset(page), PAGE)
            assert durable == payload


@pytest.mark.parametrize("kind", ["aquila", "linux"])
class TestAppendCacheCoherence:
    def _env(self, kind):
        if kind == "aquila":
            stack = setups.make_aquila_stack(
                "pmem", cache_pages=256, capacity_bytes=16 * units.MIB
            )
        else:
            stack = setups.make_linux_stack(
                "pmem", cache_pages=256, capacity_bytes=16 * units.MIB
            )
        return stack, MmioEnv(stack.engine, stack.allocator)

    def test_append_patches_dirty_cached_page(self, kind):
        """A dirty cached frame overlapping an append must not clobber it."""
        stack, env = self._env(kind)
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "wal/0.log", bytes(8 * PAGE))

        # Dirty page 0 through the mapping, leaving a dirty cached frame.
        mapping = env.mapping_of(thread, file)
        mapping.store(thread, 0, b"\x11" * 64)

        # Direct append into the same page, past the dirtied range.
        record = b"\xabWAL-RECORD" * 10
        env.append(thread, file, 64, record)

        # Loads see the appended bytes immediately (cache coherence)...
        assert env.read(thread, file, 64, len(record)) == record
        # ...and msync of the still-dirty page must not write stale
        # frame bytes over the freshly appended record.
        mapping.msync(thread)
        durable = stack.device.store.read(file.device_offset(0), PAGE)
        assert durable[:64] == b"\x11" * 64
        assert durable[64 : 64 + len(record)] == record

    def test_append_spanning_pages_stays_coherent(self, kind):
        stack, env = self._env(kind)
        thread = SimThread(core=0, tid=0)
        file = env.write_file(thread, "wal/1.log", bytes(8 * PAGE))
        mapping = env.mapping_of(thread, file)
        # Dirty both pages the append will straddle.
        mapping.store(thread, 0, b"\x22" * PAGE)
        mapping.store(thread, PAGE, b"\x33" * PAGE)
        record = b"\xcd" * 512
        start = PAGE - 256   # straddles the page-0/page-1 boundary
        env.append(thread, file, start, record)
        assert env.read(thread, file, start, len(record)) == record
        mapping.msync(thread)
        durable = stack.device.store.read(file.device_offset(0), 2 * PAGE)
        assert durable[start : start + len(record)] == record
        assert durable[:start] == b"\x22" * start
        assert durable[start + len(record) :] == b"\x33" * (2 * PAGE - start - len(record))
