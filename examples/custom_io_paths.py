#!/usr/bin/env python3
"""Customizing the mmio path: the flexibility Aquila exists for.

The paper's core argument (Sections 1 and 3) is that applications should
be able to customize the page cache, its policies, and device access
without kernel changes.  This example exercises those knobs:

* three device-access paths on identical workloads (Figure 8(c));
* eviction batch size as a latency/hit-rate trade-off;
* madvise-driven readahead.

Every stack comes from ``repro.bench.setups.make_stack``, the one way
the experiments build theirs.

Run:  python examples/custom_io_paths.py
"""

from repro.bench.report import Table
from repro.bench.setups import make_stack
from repro.common import units
from repro.mmio.vma import MADV_RANDOM, MADV_SEQUENTIAL
from repro.workloads.microbench import MicrobenchConfig, run_microbench


def device_access_paths() -> None:
    table = Table(
        "Device-access paths: mean cycles per cold fault (Figure 8(c))",
        ["path", "device", "cycles/fault"],
    )
    for label, device_kind, io_path in [
        ("DAX", "pmem", "dax"),
        ("host syscalls", "pmem", "host"),
        ("SPDK", "nvme", "spdk"),
        ("host syscalls", "nvme", "host"),
    ]:
        stack = make_stack("aquila", device_kind, cache_pages=512, io_path=io_path)
        file = stack.allocator.create("d", 384 * units.PAGE_SIZE)
        config = MicrobenchConfig(num_threads=1, accesses_per_thread=300)
        result = run_microbench(stack.engine, file, config)
        table.add_row(label, device_kind, result.merged_latencies().mean())
    table.show()


def eviction_batch_tradeoff() -> None:
    table = Table(
        "Eviction batch size: amortization vs hot-set theft",
        ["batch", "mean cycles/access", "p99 cycles"],
    )
    for batch in (4, 32, 128):
        stack = make_stack("aquila", "pmem", cache_pages=256)
        stack.engine.cache.eviction_batch = batch
        file = stack.allocator.create("d", 1024 * units.PAGE_SIZE)
        config = MicrobenchConfig(
            num_threads=1, accesses_per_thread=1200, touch_once=False
        )
        result = run_microbench(stack.engine, file, config)
        latencies = result.merged_latencies()
        mean = latencies.tail_mean(0.5)
        table.add_row(batch, mean, latencies.p99())
    table.show()


def madvise_readahead() -> None:
    table = Table(
        "madvise: sequential readahead vs random",
        ["advice", "device reads (major faults) for a 64-page scan"],
    )
    for label, advice, ra in (("MADV_RANDOM", MADV_RANDOM, 0), ("MADV_SEQUENTIAL", MADV_SEQUENTIAL, 16)):
        stack = make_stack("aquila", "pmem", cache_pages=256)
        stack.engine.readahead_pages = ra
        file = stack.allocator.create("d", 64 * units.PAGE_SIZE)
        thread = stack.machine.thread(0)
        mapping = stack.engine.mmap(thread, file)
        mapping.madvise(thread, advice)
        for page in range(64):
            mapping.load(thread, page * units.PAGE_SIZE, 8)
        table.add_row(label, stack.engine.major_faults)
    table.show()


if __name__ == "__main__":
    device_access_paths()
    eviction_batch_tradeoff()
    madvise_readahead()
