"""Engine-specific behaviours: what distinguishes the three mmio paths."""

import pytest

from repro.bench.setups import make_aquila_stack, make_kmmap_stack, make_linux_stack
from repro.common import constants, units
from repro.fault.plan import FAULT_ERROR, FaultPlan, FaultSpec
from repro.mmio.vma import MADV_NORMAL, MADV_RANDOM, MADV_SEQUENTIAL


def _map(stack, pages=128, advice=None):
    file = stack.allocator.create("data", pages * units.PAGE_SIZE)
    thread = stack.machine.thread(0)
    mapping = stack.engine.mmap(thread, file)
    if advice is not None:
        mapping.madvise(thread, advice)
    return file, thread, mapping


class TestLinuxReadahead:
    def test_default_advice_prefetches(self):
        """A single 1-byte read pulls the 128 KB window (Section 6.1)."""
        stack = make_linux_stack("pmem", cache_pages=256)
        _, thread, mapping = _map(stack, advice=MADV_NORMAL)
        mapping.load(thread, 64 * units.PAGE_SIZE, 1)
        assert stack.engine.cache.resident_pages() >= 16

    def test_madv_random_disables_readahead(self):
        stack = make_linux_stack("pmem", cache_pages=256)
        _, thread, mapping = _map(stack, advice=MADV_RANDOM)
        mapping.load(thread, 64 * units.PAGE_SIZE, 1)
        assert stack.engine.cache.resident_pages() == 1

    def test_readahead_amplifies_device_reads(self):
        """The Figure 5(b) pathology: 32x read amplification."""
        random_stack = make_linux_stack("pmem", cache_pages=512)
        normal_stack = make_linux_stack("pmem", cache_pages=512)
        _, t1, m1 = _map(random_stack, advice=MADV_RANDOM)
        _, t2, m2 = _map(normal_stack, advice=MADV_NORMAL)
        for page in range(0, 128, 37):
            m1.load(t1, page * units.PAGE_SIZE, 1)
            m2.load(t2, page * units.PAGE_SIZE, 1)
        assert normal_stack.device.bytes_read > 8 * random_stack.device.bytes_read

    def test_readahead_clamped_by_cache(self):
        """Readahead never overruns a tiny cache (PG_locked safety)."""
        stack = make_linux_stack("pmem", cache_pages=8)
        _, thread, mapping = _map(stack, pages=64, advice=MADV_NORMAL)
        for page in range(64):
            mapping.load(thread, page * units.PAGE_SIZE, 1)
        assert stack.engine.cache.resident_pages() <= 8

    def test_trap_cost_in_breakdown(self):
        stack = make_linux_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack, advice=MADV_RANDOM)
        mapping.load(thread, 0, 1)
        assert thread.clock.breakdown.get("fault.trap") == constants.TRAP_RING3_CYCLES


def _linux_window(monkeypatch, device_kind="pmem", cached=(), fail_command=None):
    """A 128-page MADV_NORMAL linux mapping with ``cached`` pages resident.

    Device page ``i`` of the file holds ``bytes([i])`` repeated.  The
    cached pages are faulted in under MADV_RANDOM first (one page each);
    afterwards every device command is recorded as ``(kind, first page,
    pages)`` with kind ``"sync"`` or ``"async"``, and the command with
    index ``fail_command`` (counted from then on) fails transiently.
    """
    stack = make_linux_stack(device_kind, cache_pages=256)
    file, thread, mapping = _map(stack, advice=MADV_RANDOM)
    device = stack.device
    for page in range(128):
        device.store.write(file.device_offset(page), bytes([page]) * units.PAGE_SIZE)
    for page in cached:
        mapping.load(thread, page * units.PAGE_SIZE, 1)
    mapping.madvise(thread, MADV_NORMAL)
    if fail_command is not None:
        plan = FaultPlan(0, FaultSpec(triggers={device.name: {fail_command: FAULT_ERROR}}))
        device.attach_faults(plan.injector_for(device.name))
    calls = []

    def recorder(kind, submit):
        def record(clock, offset, nbytes, *args, **kwargs):
            calls.append((kind, (offset - file.device_offset(0)) // units.PAGE_SIZE,
                          nbytes // units.PAGE_SIZE))
            return submit(clock, offset, nbytes, *args, **kwargs)
        return record

    monkeypatch.setattr(device, "submit", recorder("sync", device.submit))
    monkeypatch.setattr(device, "submit_async", recorder("async", device.submit_async))
    return stack, thread, mapping, calls


class TestLinuxFaultWindow:
    """The read-around window: device runs, readahead aborts, completion IRQs.

    A fault at page 64 under MADV_NORMAL reads the 32-page window
    [48, 80).  Already-cached pages split it into device-contiguous runs;
    only the run holding the faulting page blocks the thread.
    """

    def test_cached_holes_split_the_window_into_runs(self, monkeypatch):
        stack, thread, mapping, calls = _linux_window(monkeypatch, cached=(52, 60))
        assert mapping.load(thread, 64 * units.PAGE_SIZE, 1) == bytes([64])
        assert calls == [("async", 48, 4), ("async", 53, 7), ("sync", 61, 19)]
        engine = stack.engine
        assert engine.readahead_reads == 11
        assert engine.major_faults == 3 and engine.minor_faults == 0
        assert engine.cache.resident_pages() == 32
        for page in range(48, 80):
            assert mapping.load(thread, page * units.PAGE_SIZE + 7, 1) == bytes([page])
        assert len(calls) == 3, "every window page was filled by the fault"
        assert engine.minor_faults == 29   # 52, 60 and 64 are already mapped

    @pytest.mark.parametrize(
        "fault_page, fail_command, aborted",
        [
            (64, 0, range(48, 56)),   # readahead run before the blocking run
            (50, 1, range(57, 66)),   # readahead run after the blocking run
        ],
    )
    def test_failed_readahead_submit_drops_its_pages(
        self, monkeypatch, fault_page, fail_command, aborted
    ):
        stack, thread, mapping, calls = _linux_window(
            monkeypatch, cached=(56,), fail_command=fail_command
        )
        engine = stack.engine
        assert mapping.load(thread, fault_page * units.PAGE_SIZE, 1) == bytes([fault_page])
        assert [kind for kind, _, _ in calls] == (
            ["async", "sync"] if fail_command == 0 else ["sync", "async"]
        )
        assert engine.readahead_aborted == len(aborted)
        assert engine.readahead_reads == 0
        assert not engine._pinned, "pins survive the fault"
        for page in aborted:
            assert engine.cache.get_nocost(mapping.vma.file, page) is None
        assert engine.cache.resident_pages() == 32 - len(aborted)
        assert engine.cache.pool.allocated_count() == 32 - len(aborted)
        # An aborted page faults in again from the device, never stale.
        page = aborted[len(aborted) // 2]
        issued = len(calls)
        assert mapping.load(thread, page * units.PAGE_SIZE, 1) == bytes([page])
        blocking = [(first, n) for kind, first, n in calls[issued:] if kind == "sync"]
        assert len(blocking) == 1 and blocking[0][0] <= page < sum(blocking[0])

    @pytest.mark.parametrize(
        "device_kind, irq",
        [("pmem", 0.0), ("nvme", constants.HOST_NVME_COMPLETION_CYCLES)],
    )
    def test_only_the_blocking_run_takes_a_completion_irq(
        self, monkeypatch, device_kind, irq
    ):
        _, thread, mapping, calls = _linux_window(
            monkeypatch, device_kind=device_kind, cached=(52, 60)
        )
        before = thread.clock.breakdown.get("fault.io.irq")
        mapping.load(thread, 64 * units.PAGE_SIZE, 1)
        assert len(calls) == 3
        assert thread.clock.breakdown.get("fault.io.irq") - before == irq


class TestAquilaSpecifics:
    def test_exception_not_trap(self):
        stack = make_aquila_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack)
        mapping.load(thread, 0, 1)
        assert thread.clock.breakdown.get("fault.trap") == constants.TRAP_AQUILA_CYCLES

    def test_no_readahead_by_default(self):
        stack = make_aquila_stack("pmem", cache_pages=256)
        _, thread, mapping = _map(stack)
        mapping.load(thread, 0, 1)
        assert stack.engine.cache.resident_pages() == 1

    def test_madv_sequential_readahead(self):
        stack = make_aquila_stack("pmem", cache_pages=256)
        stack.engine.readahead_pages = 8
        _, thread, mapping = _map(stack, advice=MADV_SEQUENTIAL)
        mapping.load(thread, 0, 1)
        assert stack.engine.cache.resident_pages() == 9

    def test_batched_eviction(self):
        stack = make_aquila_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack, pages=256)
        for page in range(256):
            mapping.load(thread, page * units.PAGE_SIZE, 1)
        assert stack.engine.eviction_batches > 0
        # Evictions happen eviction_batch pages at a time.
        assert (
            stack.engine.cache.evictions
            >= stack.engine.eviction_batches * stack.engine.cache.eviction_batch
        )

    def test_mmap_is_vmcall_not_syscall(self):
        """Range updates interact with the hypervisor (Section 3.4)."""
        stack = make_aquila_stack("pmem", cache_pages=64)
        file = stack.allocator.create("f", units.PAGE_SIZE)
        thread = stack.machine.thread(0)
        stack.engine.mmap(thread, file)
        assert stack.engine.vmx.vmcalls >= 1

    def test_madvise_is_function_call(self):
        """Intercepted syscalls cost ~a function call (Section 4.4)."""
        stack = make_aquila_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack)
        before = thread.clock.now
        mapping.madvise(thread, MADV_RANDOM)
        assert thread.clock.now - before < constants.SYSCALL_CYCLES


class TestKmmapSpecifics:
    def test_kernel_trap_cost(self):
        stack = make_kmmap_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack)
        mapping.load(thread, 0, 1)
        assert thread.clock.breakdown.get("fault.trap") == constants.TRAP_RING3_CYCLES

    def test_kernel_device_path(self):
        """kmmap reads pmem through the kernel: non-SIMD copy cost."""
        stack = make_kmmap_stack("pmem", cache_pages=64)
        _, thread, mapping = _map(stack)
        mapping.load(thread, 0, 1)
        device_cycles = thread.clock.breakdown.prefix_total(
            "idle.fault.io"
        ) + thread.clock.breakdown.prefix_total("fault.io")
        assert device_cycles >= constants.MEMCPY_4K_NOSIMD_CYCLES

    def test_coarser_eviction_batches_than_aquila(self):
        kmmap = make_kmmap_stack("pmem", cache_pages=512)
        aquila = make_aquila_stack("pmem", cache_pages=512)
        assert kmmap.engine.cache.eviction_batch > aquila.engine.cache.eviction_batch

    def test_scalable_cache_structures_shared_with_aquila(self):
        from repro.cache.aquila_cache import AquilaCache

        stack = make_kmmap_stack("pmem", cache_pages=64)
        assert isinstance(stack.engine.cache, AquilaCache)


class TestCostOrdering:
    def test_fault_cost_ordering(self):
        """Aquila is cheapest; the two kernel paths are comparable.

        kmmap's wins over mmap come from writeback policy and cache
        scalability, not the single-thread cold-fault path — per fault it
        pays the same trap and kernel device I/O as mmap.
        """
        costs = {}
        for name, maker in (
            ("linux", make_linux_stack),
            ("aquila", make_aquila_stack),
            ("kmmap", make_kmmap_stack),
        ):
            stack = maker("pmem", cache_pages=256)
            _, thread, mapping = _map(stack, advice=MADV_RANDOM)
            start = thread.clock.now
            for page in range(100):
                mapping.load(thread, page * units.PAGE_SIZE, 1)
            costs[name] = thread.clock.now - start
        assert costs["aquila"] < costs["kmmap"]
        assert costs["aquila"] < costs["linux"]
        assert costs["kmmap"] < 1.2 * costs["linux"]
