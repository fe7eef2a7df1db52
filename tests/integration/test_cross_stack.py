"""Cross-stack integration: whole-system flows spanning many subsystems."""

import pytest

from repro.common import units
from repro.core import Aquila, AquilaConfig
from repro.devices.nvme import NvmeDevice
from repro.devices.pmem import PmemDevice
from repro.hw.machine import Machine
from repro.kv.env import MmioEnv
from repro.kv.rocksdb import RocksDB
from repro.mmio.files import ExtentAllocator
from repro.sim.executor import Executor, SimThread
from repro.workloads.ycsb import YCSBConfig, YCSBDriver


class TestRocksDBOnAquilaLibOS:
    """RocksDB running on the full Aquila library OS over SPDK blobs."""

    def test_end_to_end(self):
        machine = Machine()
        device = NvmeDevice(capacity_bytes=512 * units.MIB)
        aquila = Aquila(
            machine, device, AquilaConfig(cache_pages=512, io_path="spdk")
        )
        main = SimThread(core=0)
        aquila.enter(main)

        def blob_factory(thread, name, size_bytes):
            return aquila.open(thread, name, size_bytes=size_bytes)

        env = MmioEnv(aquila.engine, None, file_factory=blob_factory)
        db = RocksDB(env, memtable_bytes=16 * units.KIB, sst_bytes=32 * units.KIB)
        for i in range(300):
            db.put(main, b"key-%05d" % i, b"value-%d" % i)
        db.flush(main)
        db.compact_all(main)
        for i in range(300):
            assert db.get(main, b"key-%05d" % i) == b"value-%d" % i
        # Files were translated to blobs, not extents.
        assert aquila.blobstore is not None
        assert len(aquila.blobstore.blob_ids()) > 0


class TestMultiThreadedYCSBConsistency:
    """Concurrent YCSB-A over a shared store stays consistent."""

    @pytest.mark.parametrize("mode", ["aquila", "linux"])
    def test_reads_after_writes(self, mode):
        from repro.bench.setups import make_rocksdb

        db, stack = make_rocksdb(
            mode if mode != "linux" else "mmap",
            cache_pages=256,
            capacity_bytes=512 * units.MIB,
            memtable_bytes=32 * units.KIB,
        )
        loader = SimThread(core=0)
        config = YCSBConfig(
            workload="A", record_count=400, operation_count=400, value_bytes=128
        )
        driver = YCSBDriver(db, config)
        driver.load(loader)
        db.flush(loader)

        executor = Executor()
        threads = []
        for i in range(4):
            thread = SimThread(core=i)
            thread.clock.now = loader.clock.now
            threads.append(thread)
            executor.add(thread, driver.run_workload(thread, 100))
        executor.run()
        assert driver.stats.not_found == 0
        assert driver.stats.operations == 400


class TestHeapExtensionPersistence:
    """A graph heap persists across mappings through msync."""

    def test_bfs_state_durable(self):
        from repro.bench.setups import make_aquila_stack
        from repro.graph.ligra import ParallelBFS
        from repro.graph.mmap_heap import MmapHeap
        from repro.graph.rmat import make_rmat_csr

        stack = make_aquila_stack("pmem", cache_pages=128, capacity_bytes=128 * units.MIB)
        file = stack.allocator.create("heap", 8 * units.MIB)
        setup = SimThread(core=0)
        mapping = stack.engine.mmap(setup, file)
        heap = MmapHeap(mapping)
        graph = make_rmat_csr(400, 8, seed=12)
        threads = [SimThread(core=i) for i in range(2)]
        bfs = ParallelBFS(heap, graph, threads, setup_thread=setup)
        result = bfs.run(graph.largest_out_degree_vertex())
        mapping.msync(setup)
        mapping.munmap(setup)
        # Re-map: the parents array content is still there.
        mapping2 = stack.engine.mmap(setup, file)
        heap2 = MmapHeap(mapping2)
        from repro.graph.mmap_heap import HeapArray

        parents2 = HeapArray(heap2, bfs.parents.offset, bfs.parents.length)
        probe = SimThread(core=0)
        root = graph.largest_out_degree_vertex()
        assert parents2.read(probe, root) == root


class TestDeterminism:
    """The whole simulation is bit-deterministic."""

    def test_repeated_runs_identical(self):
        from repro.bench.experiments.fig8 import in_memory_pages, run_fault_benchmark

        def fig8a():
            return {
                engine: run_fault_benchmark(engine, *in_memory_pages(100), 100)
                for engine in ("linux", "aquila")
            }

        a = fig8a()
        b = fig8a()
        assert a["linux"]["mean_access_cycles"] == b["linux"]["mean_access_cycles"]
        assert a["aquila"]["mean_access_cycles"] == b["aquila"]["mean_access_cycles"]
