"""Crash matrix: kill the stack at every writeback/msync/eviction
boundary and verify the recovery invariants.

For each engine, a deterministic workload of full-page writes and syncs
first runs in count mode to enumerate the crash points, then re-runs
once per point with the controller armed.  At the simulated crash the
durable device state is snapshotted; the matrix asserts, per point:

* **no torn page** — every recovered page equals *some* complete version
  the workload wrote (pages get unique payloads, so versions are
  unambiguous);
* **no acknowledged-durable data lost** — every page is at least as new
  as the version acknowledged by the last completed sync.

The kv-level matrices additionally restart Kreon / RocksDB from the
snapshot and assert every acknowledged put survives recovery.
"""

import pytest

from repro.common import units
from repro.common.errors import SimulatedCrash
from repro.fault.crash import CRASH, restore_devices
from repro.fault.differential import _make_stack
from repro.kv.env import MmioEnv
from repro.kv.rocksdb import RocksDB
from repro.sim import rand
from repro.sim.executor import SimThread

PAGE = units.PAGE_SIZE
FILE_PAGES = 16
#: Smaller than the file so the workload also crosses eviction boundaries.
CACHE_PAGES = 8
ENGINES = ("aquila", "linux", "kmmap", "explicit")


@pytest.fixture(autouse=True)
def _crash_off():
    CRASH.reset()
    yield
    CRASH.reset()


def _page_payload(version: int, page: int) -> bytes:
    """A unique, recognizable full-page payload."""
    rng = rand.stream(version, f"crash.page.{page}")
    return bytes(rng.randbytes(PAGE))


def _workload(seed: int):
    """(op, page, version) tuples: full-page writes with periodic syncs."""
    rng = rand.stream(seed, "crash.workload")
    ops = []
    version = 1
    for index in range(24):
        page = rng.randrange(FILE_PAGES)
        ops.append(("write", page, version))
        version += 1
        if index % 6 == 5:
            ops.append(("sync", 0, 0))
    ops.append(("sync", 0, 0))
    return ops


def _run(kind: str, ops, arm_point=None):
    """Run the workload; returns (stack, file, versions, acked) histories.

    ``versions[page]`` lists every complete payload the page ever held
    (index 0 = initial zeros); ``acked[page]`` is the version index the
    last *completed* sync acknowledged as durable.  With ``arm_point``
    the controller is armed on the fresh stack's device and the
    resulting :class:`SimulatedCrash` is swallowed here.
    """
    stack = _make_stack(kind, cache_pages=CACHE_PAGES, capacity_bytes=4 * units.MIB)
    file = stack.allocator.create("crash-matrix", FILE_PAGES * PAGE)
    if arm_point is not None:
        CRASH.arm(arm_point, [stack.device])
    thread = SimThread(core=0, tid=0)
    versions = {page: [bytes(PAGE)] for page in range(FILE_PAGES)}
    current = {page: 0 for page in range(FILE_PAGES)}
    acked = {page: 0 for page in range(FILE_PAGES)}

    mapping = None
    if kind != "explicit":
        mapping = stack.engine.mmap(thread, file)

    try:
        for op, page, version in ops:
            if op == "write":
                payload = _page_payload(version, page)
                versions[page].append(payload)
                current[page] = len(versions[page]) - 1
                if kind == "explicit":
                    stack.engine.pwrite(thread, file, page * PAGE, payload)
                else:
                    mapping.store(thread, page * PAGE, payload)
            else:
                if kind == "explicit":
                    stack.engine.fsync(thread, file)
                else:
                    mapping.msync(thread)
                acked = dict(current)
    except SimulatedCrash:
        pass
    return stack, file, versions, acked


def _check_invariants(kind, point, file, snapshot, versions, acked):
    device_pages = snapshot[file.device.name]
    for page in range(FILE_PAGES):
        offset = file.device_offset(page)
        recovered = device_pages.get(offset // PAGE, bytes(PAGE))
        assert recovered in versions[page], (
            f"{kind} point #{point}: page {page} is torn "
            f"(matches no complete written version)"
        )
        index = versions[page].index(recovered)
        assert index >= acked[page], (
            f"{kind} point #{point}: page {page} regressed to version "
            f"{index} < acked {acked[page]} — acknowledged data lost"
        )


@pytest.mark.parametrize("kind", ENGINES)
class TestEngineCrashMatrix:
    def test_every_boundary_recovers(self, kind):
        ops = _workload(31)
        CRASH.count_mode()
        _run(kind, ops)
        total_points = CRASH.points_seen
        labels = list(CRASH.labels)
        assert total_points > 0, f"{kind}: workload hit no crash points"
        CRASH.reset()

        for point in range(1, total_points + 1):
            _stack, file, versions, acked = _run(kind, ops, arm_point=point)
            assert CRASH.snapshot is not None, (
                f"{kind} point #{point} ({labels[point - 1]}) never fired"
            )
            _check_invariants(kind, point, file, CRASH.snapshot, versions, acked)
            CRASH.reset()


class TestCrashDeterminism:
    def test_point_enumeration_is_reproducible(self):
        ops = _workload(31)
        labels = []
        for _ in range(2):
            CRASH.count_mode()
            _run("aquila", ops)
            labels.append(list(CRASH.labels))
            CRASH.reset()
        assert labels[0] == labels[1]
        assert any(label.startswith("aquila.") for label in labels[0])

    def test_labels_cover_writeback_and_msync(self):
        ops = _workload(31)
        CRASH.count_mode()
        _run("linux", ops)
        labels = list(CRASH.labels)
        CRASH.reset()
        assert any(label.endswith(".msync") for label in labels)
        assert any("writeback" in label for label in labels)


class TestKreonCrashRecovery:
    """Kreon restarts from the snapshot and recovers the value log."""

    def _build(self):
        from repro.bench import setups

        return setups.make_kreon(
            "aquila", device_kind="pmem", cache_pages=512,
            volume_bytes=8 * units.MIB, capacity_bytes=32 * units.MIB,
            l0_max_entries=1 << 20,   # no spills: pure log + L0 workload
        )

    def _fill(self, store, thread, n, sync_every):
        """Puts with periodic msync; returns the acked kv state."""
        acked = {}
        live = {}
        for index in range(n):
            key = f"key-{index:04d}".encode()
            value = f"value-{index:04d}-{index * 7:06d}".encode()
            store.put(thread, key, value)
            live[key] = value
            if index % sync_every == sync_every - 1:
                store.msync(thread)
                acked = dict(live)
        return acked

    def test_recovery_after_crash_at_every_msync(self):
        # Enumerate kreon.msync boundaries.
        store, stack, thread = self._build()
        CRASH.count_mode()
        self._fill(store, thread, 40, sync_every=8)
        msync_points = [
            index + 1
            for index, label in enumerate(CRASH.labels)
            if label == "kreon.msync"
        ]
        CRASH.reset()
        assert msync_points

        from repro.bench import setups
        from repro.kv.kreon import Kreon

        for point in msync_points:
            store, stack, thread = self._build()
            CRASH.arm(point, [stack.device])
            try:
                self._fill(store, thread, 40, sync_every=8)
            except SimulatedCrash:
                pass
            assert CRASH.snapshot is not None
            # The crash interrupted _fill, so recompute the acknowledged
            # state from the boundary log: every put before the last
            # *completed* kreon.msync is acknowledged durable.  (The
            # fired point itself counts — Kreon places it after
            # mapping.msync returns, so that msync's data is on device.)
            completed_syncs = sum(
                1 for label in CRASH.labels if label == "kreon.msync"
            )
            acked = {}
            live = {}
            for index in range(40):
                key = f"key-{index:04d}".encode()
                value = f"value-{index:04d}-{index * 7:06d}".encode()
                live[key] = value
                if index % 8 == 7:
                    if completed_syncs <= 0:
                        break
                    completed_syncs -= 1
                    acked = dict(live)
            assert acked

            # "Reboot": fresh machine/engine over a device restored from
            # the durable snapshot; volume metadata (the superblock)
            # survives as the same extent layout.
            reborn = setups.make_aquila_stack(
                "pmem", cache_pages=512, capacity_bytes=32 * units.MIB
            )
            restore_devices([reborn.device], CRASH.snapshot)
            volume = reborn.allocator.create("kreon-volume", 8 * units.MIB)
            thread2 = SimThread(core=0, tid=0)
            recovered = Kreon(
                reborn.engine, volume, thread2, l0_max_entries=1 << 20
            )
            count = recovered.recover(thread2)
            assert count >= len(acked)
            for key, value in acked.items():
                assert recovered.get(thread2, key) == value, (
                    f"point #{point}: acked key {key!r} lost after recovery"
                )
            CRASH.reset()


class TestRocksDBCrashRecovery:
    """RocksDB replays its WAL from the snapshot after a crash."""

    PUTS = 200

    def _build(self):
        from repro.bench import setups

        stack = setups.make_aquila_stack(
            "pmem", cache_pages=512, capacity_bytes=32 * units.MIB
        )
        env = MmioEnv(stack.engine, stack.allocator)
        db = RocksDB(env, memtable_bytes=units.KIB, wal_bytes=32 * units.KIB)
        return db, stack, SimThread(core=0, tid=0)

    @staticmethod
    def _kv(index):
        key = f"rk-{index:04d}".encode()
        value = f"rv-{index:04d}-{index * 13:06d}".encode()
        return key, value

    def test_recovery_at_every_flush_boundary(self):
        db, stack, thread = self._build()
        CRASH.count_mode()
        for index in range(self.PUTS):
            key, value = self._kv(index)
            db.put(thread, key, value)
        flush_points = [
            index + 1
            for index, label in enumerate(CRASH.labels)
            if label == "rocksdb.flush"
        ]
        CRASH.reset()
        assert flush_points
        # Single WAL segment: the reboot below recreates the manifest by
        # re-allocating it as the allocator's first (hence identical)
        # extent — true only while no rotation happened.
        assert len(db.wal_files) == 1

        from repro.bench import setups

        for point in flush_points[:4]:
            db, stack, thread = self._build()
            CRASH.arm(point, [stack.device])
            acked = 0
            try:
                for index in range(self.PUTS):
                    key, value = self._kv(index)
                    db.put(thread, key, value)
                    acked = index + 1
            except SimulatedCrash:
                pass
            assert CRASH.snapshot is not None
            # Every completed put's WAL append hit the device before the
            # put returned (direct bulk writes): all of them are acked.
            reborn = setups.make_aquila_stack(
                "pmem", cache_pages=512, capacity_bytes=32 * units.MIB
            )
            restore_devices([reborn.device], CRASH.snapshot)
            env2 = MmioEnv(reborn.engine, reborn.allocator)
            db2 = RocksDB(env2, memtable_bytes=units.KIB, wal_bytes=32 * units.KIB)
            thread2 = SimThread(core=0, tid=0)
            for index, old_file in enumerate(db.wal_files):
                db2.wal_files.append(
                    reborn.allocator.create(f"wal/{index:06d}.log", old_file.size_bytes)
                )
            replayed = db2.replay_wal(thread2)
            assert replayed >= acked
            for index in range(acked):
                key, value = self._kv(index)
                assert db2.get(thread2, key) == value, (
                    f"point #{point}: acked put {key!r} lost after recovery"
                )
            CRASH.reset()
