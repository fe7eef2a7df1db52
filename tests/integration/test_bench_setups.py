"""The experiment stack factories benchmarks rely on."""

import pytest

from repro.bench.setups import (
    SCALED_GB,
    make_aquila_stack,
    make_device,
    make_kmmap_stack,
    make_kreon,
    make_linux_stack,
    make_rocksdb,
    scaled_batches,
    scaled_pages,
)
from repro.common import units
from repro.devices.io_engines import DaxIO, HostSyscallIO, SpdkIO
from repro.devices.nvme import NvmeDevice
from repro.devices.pmem import PmemDevice
from repro.sim.executor import SimThread


class TestScaling:
    def test_paper_gb_is_one_mib(self):
        assert SCALED_GB == units.MIB
        assert scaled_pages(1) == 256
        assert scaled_pages(8) == 2048
        assert scaled_pages(100) == 25600

    def test_scaled_batches_sane(self):
        for cache in (64, 512, 4096, 1 << 21):
            batches = scaled_batches(cache)
            assert min(batches.values()) > 0
            assert batches["eviction_batch"] <= max(4, cache // 8)
            assert batches["freelist_core_threshold"] * 32 <= max(64, cache)


class TestDevices:
    def test_make_device_kinds(self):
        assert isinstance(make_device("pmem"), PmemDevice)
        assert isinstance(make_device("nvme"), NvmeDevice)
        with pytest.raises(ValueError):
            make_device("floppy")


class TestStacks:
    def test_stacks_isolated(self):
        a = make_aquila_stack("pmem", 128)
        b = make_aquila_stack("pmem", 128)
        assert a.machine is not b.machine
        assert a.device is not b.device

    def test_aquila_io_path_auto(self):
        assert isinstance(make_aquila_stack("pmem", 64).engine.io_path, DaxIO)
        assert isinstance(make_aquila_stack("nvme", 64).engine.io_path, SpdkIO)
        assert isinstance(
            make_aquila_stack("pmem", 64, io_path="host").engine.io_path, HostSyscallIO
        )

    def test_batches_rescaled(self):
        stack = make_aquila_stack("pmem", 512)
        assert stack.engine.cache.eviction_batch <= 512 // 8
        kmmap = make_kmmap_stack("pmem", 512)
        assert kmmap.engine.cache.eviction_batch > stack.engine.cache.eviction_batch

    def test_linux_readahead_override(self):
        stack = make_linux_stack("pmem", 128, readahead_pages=4)
        assert stack.engine.readahead_pages == 4


class TestStoreFactories:
    @pytest.mark.parametrize("mode", ["direct", "mmap", "aquila"])
    def test_rocksdb_modes_work(self, mode):
        db, stack = make_rocksdb(mode, cache_pages=128)
        thread = SimThread(core=0, tid=0)
        db.put(thread, b"k", b"v")
        assert db.get(thread, b"k") == b"v"

    def test_rocksdb_unknown_mode(self):
        with pytest.raises(ValueError):
            make_rocksdb("carrier-pigeon")

    @pytest.mark.parametrize("engine", ["kmmap", "aquila"])
    def test_kreon_engines_work(self, engine):
        store, stack, thread = make_kreon(engine, cache_pages=128)
        store.put(thread, b"k", b"v")
        assert store.get(thread, b"k") == b"v"

    def test_kreon_unknown_engine(self):
        with pytest.raises(ValueError):
            make_kreon("raw-mmap")
