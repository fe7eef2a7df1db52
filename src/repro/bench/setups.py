"""Experiment stack factories shared by benchmarks, tests and examples.

Each factory assembles a complete, independent stack (machine, device,
engine, env/store) for one experiment configuration; :func:`make_stack`
is the one way to build an mmio stack.  Scale notes: the default
experiment scale is 1/1024 of the paper's sizes — 1 paper-GB is one
simulated MiB — with batch parameters rescaled through
:func:`scaled_batches` (DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common import units
from repro.devices.block import BlockDevice
from repro.devices.io_engines import DaxIO, HostSyscallIO, SpdkIO
from repro.devices.nvme import NvmeDevice
from repro.devices.pmem import PmemDevice
from repro.hw.machine import Machine
from repro.hw.vmx import ExecutionDomain, VMXCostModel
from repro.kv.env import DirectIOEnv, MmioEnv
from repro.kv.kreon import Kreon
from repro.kv.rocksdb import RocksDB
from repro.mmio.aquila import AquilaEngine
from repro.mmio.explicit import ExplicitIOEngine
from repro.mmio.files import ExtentAllocator
from repro.mmio.kmmap import KmmapEngine
from repro.mmio.linux_mmap import LinuxMmapEngine
from repro.sim.executor import SimThread

#: Paper-GB expressed in simulated bytes (default 1/1024 scale).
SCALED_GB = units.MIB


def scaled_pages(paper_gb: float) -> int:
    """Pages for ``paper_gb`` paper-gigabytes at the default scale."""
    return max(1, int(paper_gb * SCALED_GB) >> units.PAGE_SHIFT)


def scaled_batches(cache_pages: int) -> Dict[str, int]:
    """Aquila's and kmmap's batch sizes for a ``cache_pages`` cache.

    The paper evicts 512 pages out of a 2M-page (8 GB) cache — only
    0.025% of the cache, so batching never costs meaningful hit rate
    while amortizing one IPI per core over 512 pages.  A scaled batch
    must balance the same two pressures: large enough to amortize the
    per-core IPI sends (>= 32), small enough not to steal the hot set
    (<= 1/8 of the cache).  Returns the engines' batch keyword
    arguments.
    """
    eviction = min(max(32, cache_pages // 256), max(4, cache_pages // 8))
    # Frames parked in per-core queues are invisible to other cores
    # until they spill; across 32 hardware threads the total parked
    # (32 * threshold) must stay a small fraction of the cache or
    # concurrent evictors starve each other.
    threshold = max(2, cache_pages // 512)
    move = min(max(8, cache_pages // 512), eviction)
    return {
        "eviction_batch": eviction,
        "shootdown_batch": eviction,
        "freelist_move_batch": move,
        "freelist_core_threshold": threshold,
    }


def make_device(kind: str, capacity_bytes: int = 512 * units.MIB) -> BlockDevice:
    """A fresh pmem or NVMe device."""
    if kind == "pmem":
        return PmemDevice(capacity_bytes=capacity_bytes)
    if kind == "nvme":
        return NvmeDevice(capacity_bytes=capacity_bytes)
    raise ValueError(f"unknown device kind {kind!r}")


def make_aquila_io_path(device: BlockDevice, io_path: Optional[str] = None):
    """The Aquila device-access path for ``device`` (auto: DAX/SPDK)."""
    if io_path is None:
        io_path = "dax" if isinstance(device, PmemDevice) else "spdk"
    if io_path == "dax":
        return DaxIO(device)
    if io_path == "spdk":
        return SpdkIO(device)
    if io_path == "host":
        return HostSyscallIO(device, VMXCostModel(ExecutionDomain.NONROOT_RING0))
    raise ValueError(f"unknown io_path {io_path!r}")


@dataclass
class Stack:
    """One assembled experiment stack."""

    machine: Machine
    device: BlockDevice
    engine: object
    allocator: ExtentAllocator


def make_linux_stack(
    device_kind: str = "pmem",
    cache_pages: int = 2048,
    capacity_bytes: int = 512 * units.MIB,
    readahead_pages: Optional[int] = None,
) -> Stack:
    """Linux mmap over a fresh machine and device."""
    machine = Machine()
    device = make_device(device_kind, capacity_bytes)
    kwargs = {}
    if readahead_pages is not None:
        kwargs["readahead_pages"] = readahead_pages
    engine = LinuxMmapEngine(machine, cache_pages=cache_pages, **kwargs)
    return Stack(machine, device, engine, ExtentAllocator(device))


def make_aquila_stack(
    device_kind: str = "pmem",
    cache_pages: int = 2048,
    capacity_bytes: int = 512 * units.MIB,
    io_path: Optional[str] = None,
) -> Stack:
    """Aquila over a fresh machine and device, batch sizes rescaled."""
    machine = Machine()
    device = make_device(device_kind, capacity_bytes)
    engine = AquilaEngine(
        machine,
        cache_pages=cache_pages,
        io_path=make_aquila_io_path(device, io_path),
        **scaled_batches(cache_pages),
    )
    return Stack(machine, device, engine, ExtentAllocator(device))


def make_kmmap_stack(
    device_kind: str = "pmem",
    cache_pages: int = 2048,
    capacity_bytes: int = 512 * units.MIB,
) -> Stack:
    """Kreon's kmmap over a fresh machine and device."""
    machine = Machine()
    device = make_device(device_kind, capacity_bytes)
    engine = KmmapEngine(
        machine,
        cache_pages=cache_pages,
        device=device,
        **scaled_batches(cache_pages),
    )
    return Stack(machine, device, engine, ExtentAllocator(device))


def make_stack(
    engine_kind: str,
    device_kind: str = "pmem",
    cache_pages: int = 2048,
    capacity_bytes: int = 512 * units.MIB,
    **options,
) -> Stack:
    """The mmio stack of ``engine_kind`` (``linux``, ``aquila`` or ``kmmap``).

    ``options`` go to that kind's maker (``readahead_pages`` for linux,
    ``io_path`` for aquila); an unknown kind raises ``ValueError``.
    """
    makers = {"linux": make_linux_stack, "aquila": make_aquila_stack, "kmmap": make_kmmap_stack}
    if engine_kind not in makers:
        raise ValueError(f"unknown mmio engine kind {engine_kind!r}")
    return makers[engine_kind](device_kind, cache_pages, capacity_bytes, **options)


def make_rocksdb(
    mode: str,
    device_kind: str = "pmem",
    cache_pages: int = 2048,
    capacity_bytes: int = 512 * units.MIB,
    memtable_bytes: int = 256 * units.KIB,
    sst_bytes: int = 64 * units.KIB,
) -> Tuple[RocksDB, Stack]:
    """A RocksDB instance in one of the paper's three modes.

    ``mode``: ``"direct"`` (user cache + read/write), ``"mmap"`` (Linux),
    or ``"aquila"``.
    """
    if mode == "direct":
        machine = Machine()
        device = make_device(device_kind, capacity_bytes)
        allocator = ExtentAllocator(device)
        io = ExplicitIOEngine(machine, cache_pages=cache_pages)
        env = DirectIOEnv(io, allocator)
        stack = Stack(machine, device, io, allocator)
    elif mode == "mmap":
        stack = make_linux_stack(device_kind, cache_pages, capacity_bytes)
        env = MmioEnv(stack.engine, stack.allocator)
    elif mode == "aquila":
        stack = make_aquila_stack(device_kind, cache_pages, capacity_bytes)
        env = MmioEnv(stack.engine, stack.allocator)
    else:
        raise ValueError(f"unknown RocksDB mode {mode!r}")
    db = RocksDB(env, memtable_bytes=memtable_bytes, sst_bytes=sst_bytes)
    return db, stack


def make_kreon(
    engine_kind: str,
    device_kind: str = "nvme",
    cache_pages: int = 2048,
    volume_bytes: int = 128 * units.MIB,
    capacity_bytes: int = 512 * units.MIB,
    l0_max_entries: int = 2048,
) -> Tuple[Kreon, Stack, SimThread]:
    """A Kreon instance over kmmap or Aquila; returns its setup thread."""
    if engine_kind == "kmmap":
        stack = make_kmmap_stack(device_kind, cache_pages, capacity_bytes)
    elif engine_kind == "aquila":
        stack = make_aquila_stack(device_kind, cache_pages, capacity_bytes)
    else:
        raise ValueError(f"unknown Kreon engine {engine_kind!r}")
    volume = stack.allocator.create("kreon-volume", volume_bytes)
    thread = stack.machine.thread(0)
    store = Kreon(stack.engine, volume, thread, l0_max_entries=l0_max_entries)
    return store, stack, thread
