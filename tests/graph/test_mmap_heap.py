"""Heap allocators over mappings and DRAM."""

import pytest

from repro.bench.setups import make_aquila_stack
from repro.common import units
from repro.common.errors import OutOfMemoryError
from repro.graph.mmap_heap import DramHeap, MmapHeap
from repro.sim.executor import SimThread


def _mmap_heap(pages=64, cache=128):
    stack = make_aquila_stack("pmem", cache_pages=cache, capacity_bytes=64 * units.MIB)
    file = stack.allocator.create("heap", pages * units.PAGE_SIZE)
    thread = SimThread(core=0, tid=0)
    mapping = stack.engine.mmap(thread, file)
    return MmapHeap(mapping), thread, stack


@pytest.fixture(params=["mmap", "dram"])
def heap_and_thread(request):
    if request.param == "mmap":
        heap, thread, _ = _mmap_heap()
        return heap, thread
    return DramHeap(64 * units.PAGE_SIZE), SimThread(core=0, tid=0)


class TestAllocator:
    def test_bump_allocation(self, heap_and_thread):
        heap, _ = heap_and_thread
        a = heap.alloc(100)
        b = heap.alloc(100)
        assert b >= a + 100

    def test_alignment(self, heap_and_thread):
        heap, _ = heap_and_thread
        heap.alloc(3)
        b = heap.alloc(8, align=8)
        assert b % 8 == 0

    def test_exhaustion(self, heap_and_thread):
        heap, _ = heap_and_thread
        with pytest.raises(OutOfMemoryError):
            heap.alloc(1 << 40)

    def test_allocated_bytes(self, heap_and_thread):
        heap, _ = heap_and_thread
        heap.alloc(64)
        assert heap.allocated_bytes >= 64


class TestHeapArray:
    def test_read_write(self, heap_and_thread):
        heap, thread = heap_and_thread
        array = heap.alloc_array(100)
        array.write(thread, 5, 0xDEADBEEF)
        assert array.read(thread, 5) == 0xDEADBEEF
        assert array.read(thread, 6) == 0

    def test_bounds(self, heap_and_thread):
        heap, thread = heap_and_thread
        array = heap.alloc_array(10)
        with pytest.raises(IndexError):
            array.read(thread, 10)
        with pytest.raises(IndexError):
            array.write(thread, -1, 0)
        with pytest.raises(IndexError):
            array.read_range(thread, 8, 5)

    def test_read_range(self, heap_and_thread):
        heap, thread = heap_and_thread
        array = heap.alloc_array(20)
        for i in range(20):
            array.write(thread, i, i * 11)
        assert array.read_range(thread, 5, 4) == [55, 66, 77, 88]
        assert array.read_range(thread, 0, 0) == []

    def test_fill(self, heap_and_thread):
        heap, thread = heap_and_thread
        array = heap.alloc_array(1000)
        array.fill(thread, 7)
        assert array.read(thread, 0) == 7
        assert array.read(thread, 999) == 7

    def test_max_u64(self, heap_and_thread):
        heap, thread = heap_and_thread
        array = heap.alloc_array(2)
        array.write(thread, 0, (1 << 64) - 1)
        assert array.read(thread, 0) == (1 << 64) - 1

    def test_arrays_do_not_alias(self, heap_and_thread):
        heap, thread = heap_and_thread
        a = heap.alloc_array(16)
        b = heap.alloc_array(16)
        a.fill(thread, 1)
        b.fill(thread, 2)
        assert a.read(thread, 15) == 1
        assert b.read(thread, 0) == 2


class TestMmapHeapCosts:
    def test_accesses_fault_and_charge(self):
        heap, thread, stack = _mmap_heap(pages=64, cache=16)
        array = heap.alloc_array(64 * 512 - 16)
        before = stack.engine.faults
        array.write(thread, 0, 1)
        array.write(thread, 40_000 % array.length, 2)
        assert stack.engine.faults > before

    def test_eviction_preserves_data(self):
        heap, thread, stack = _mmap_heap(pages=64, cache=8)
        array = heap.alloc_array(64 * 512 - 16)
        stride = 512   # one element per page
        for i in range(0, array.length, stride):
            array.write(thread, i, i)
        for i in range(0, array.length, stride):
            assert array.read(thread, i) == i
