#!/usr/bin/env python3
"""Quickstart: map a file through Aquila and touch it.

Builds an Aquila stack with ``repro.bench.setups.make_stack`` (the one
way every experiment builds its stack) and uses the familiar
mmap/load/store/msync surface — with page faults handled in non-root
ring 0 and device access through DAX.

Run:  python examples/quickstart.py
"""

from repro.bench.setups import make_stack
from repro.common import units


def main() -> None:
    # The simulated testbed (dual-socket Xeon, 32 hw threads) with pmem
    # and Aquila over a 2048-page (8 MiB) DRAM cache on the DAX path,
    # batch sizes rescaled from the paper's 8 GB configuration.
    stack = make_stack("aquila", "pmem", cache_pages=2048, capacity_bytes=256 * units.MIB)
    engine = stack.engine
    main_thread = stack.machine.thread(0)   # the machine numbers its threads

    # Create a file and map it (an mmap-class range update: one vmcall).
    file = stack.allocator.create("example", 4 * units.MIB)
    mapping = engine.mmap(main_thread, file)

    # Plain loads and stores; misses fault in non-root ring 0 at 552
    # cycles of exception cost instead of the kernel's 1287-cycle trap.
    mapping.store(main_thread, 0, b"Hello, memory-mapped storage!")
    data = mapping.load(main_thread, 0, 29)
    print(f"read back: {data.decode()}")

    # Cache hits are pure hardware: watch the cycle counter barely move.
    before = main_thread.clock.now
    mapping.load(main_thread, 0, 8)
    print(f"hit cost: {main_thread.clock.now - before:.0f} cycles")

    # A miss pays the fault path (~3.8K cycles with DAX on pmem).
    before = main_thread.clock.now
    mapping.load(main_thread, 2 * units.MIB, 8)
    print(f"miss cost: {main_thread.clock.now - before:.0f} cycles")

    # msync is intercepted too: dirty pages flush in device-offset order.
    written = mapping.msync(main_thread)
    print(f"msync wrote {written} page(s)")

    cache = engine.cache
    print("\ncache stats:")
    for key, value in (
        ("capacity_pages", cache.capacity_pages),
        ("resident_pages", cache.resident_pages()),
        ("dirty_pages", cache.dirty_count()),
        ("faults", engine.faults),
        ("major_faults", engine.major_faults),
    ):
        print(f"  {key:20s} {value}")

    seconds = main_thread.clock.seconds
    print(f"\nsimulated time elapsed: {seconds * 1e6:.1f} us")


if __name__ == "__main__":
    main()
