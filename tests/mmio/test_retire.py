"""``MmioEngine.retire``: one primitive, identical in every executor mode.

The hit loop keeps per-category running sums and flushes them once per
run into the clock breakdown.  These tests pin that
flush to the stepped reference where it is hardest to get right — an
SMT cell (CPI 1.4, so charges are not integers) with stores, and runs
with a span open on every thread clock — and check that the one-op path
raises exactly what ``Mapping.load``/``Mapping.store`` raise.
"""

import contextlib
import math

import pytest

from repro.bench.setups import make_aquila_stack, make_kmmap_stack, make_linux_stack
from repro.cache.partition import CachePartition
from repro.common import units
from repro.common.errors import ProtectionFault, SegmentationFault
from repro.mmio.vma import MADV_RANDOM, PROT_READ
from repro.obs import TRACER
from repro.sim.conformance import diff_digests, mmio_state_digest
from repro.sim.executor import Executor, RunResult
from repro.sim.fastforward import AccessPlan
from repro.workloads.microbench import WRITE_DATA, access_workload

MAKERS = {
    "aquila": make_aquila_stack,
    "kmmap": make_kmmap_stack,
    "linux": make_linux_stack,
}

#: (label, batched, fastforward) for the three executor modes.
MODES = (("unbatched", False, False), ("batched", True, False), ("fastforward", True, True))


def _spanned(thread, work):
    """Run ``work`` with one span open on ``thread``'s clock throughout."""
    with TRACER.span("cell", thread.clock):
        yield from work


def _span_rows(tracer):
    """Finished spans, normalized so executor modes compare exactly.

    Unbatched mode wraps every hit in its own childless ``op.access``
    span, while a batched hit run retires inside the enclosing span.
    Dropping the childless ``op.access`` spans makes the two shapes
    comparable; what those hits charged is in each thread's breakdown,
    which the state digest compares.
    """
    names = tracer.track_names()
    return sorted(
        (names[span.track], span.depth, span.begin, span.end, span.name)
        for span in tracer.finished_spans()
        if not (span.depth == 1 and span.name == "op.access" and not span.child_cycles)
    )


def _run(engine_kind, batched, fastforward, num_threads, write_fraction, spans,
         cache_pages=256):
    """One shared-file microbenchmark cell; returns (digest, spans, engine, threads)."""
    stack = MAKERS[engine_kind]("pmem", cache_pages)
    engine = stack.engine
    engine.fastforward = batched and fastforward
    file = stack.allocator.create("retire", 160 * units.PAGE_SIZE)
    executor = Executor(batched=batched, quiescent=engine.run_ahead_unbounded_ok)
    threads = []
    rows = None
    with TRACER.isolated(enable=spans):
        mapping = None
        for index in range(num_threads):
            thread = engine.machine.thread(index % engine.machine.topology.num_hw_threads)
            threads.append(thread)
            if mapping is None:
                mapping = engine.mmap(thread, file)
                mapping.madvise(thread, MADV_RANDOM)
            work = access_workload(
                thread, mapping, 600, write_fraction, True, 7,
                partition_index=index, partition_count=num_threads,
            )
            executor.add(thread, _spanned(thread, work) if spans else work)
        engine.machine.apply_smt_penalty(threads)
        result = executor.run()
        if spans:
            assert TRACER.dropped == 0
            rows = _span_rows(TRACER)
    return mmio_state_digest(stack, result), rows, engine, threads


def _assert_modes_agree(engine_kind, num_threads, write_fraction, spans):
    runs = {
        label: _run(engine_kind, batched, ff, num_threads, write_fraction, spans)
        for label, batched, ff in MODES
    }
    reference, reference_rows, _, _ = runs["unbatched"]
    for label in ("batched", "fastforward"):
        digest, rows, engine, _ = runs[label]
        problems = diff_digests(reference, digest)
        assert not problems, f"{label} diverged:\n  " + "\n  ".join(problems[:5])
        assert rows == reference_rows, f"{label} spans diverged"
        assert engine.batched_hits > 0, f"{label} never ran the hit loop"
    return runs


class TestHitLoopExactness:
    # linux is left out: on this write-mix cell its batched schedule
    # already diverges from unbatched with fast-forward off (a TLB entry
    # is shot down before a hit it should follow), independently of the
    # hit loop — see the open items in ROADMAP.md.
    @pytest.mark.parametrize("engine_kind", ["aquila", "kmmap"])
    def test_smt_write_mix(self, engine_kind):
        runs = _assert_modes_agree(engine_kind, 32, 0.3, spans=False)
        threads = runs["batched"][3]
        assert all(t.clock.cpi_factor == 1.4 for t in threads)
        assert any(not t.clock.now.is_integer() for t in threads)

    @pytest.mark.parametrize("num_threads", [4, 32])
    def test_span_open_on_every_clock(self, num_threads):
        runs = _assert_modes_agree("aquila", num_threads, 0.3, spans=True)
        _, rows, _, threads = runs["batched"]
        assert sum(1 for row in rows if row[1] == 0) == num_threads
        assert all(t.clock.breakdown.get("app.access") for t in threads)

    @pytest.mark.parametrize("num_threads", [1, 32])
    def test_read_only_spans_fast_forward(self, num_threads):
        # Read-only, so analytic windows retire under the open spans (at
        # CPI 1.4 with 32 threads) and must leave them as the loop does.
        runs = _assert_modes_agree("aquila", num_threads, 0.0, spans=True)
        assert runs["fastforward"][2].ff_runs > 0


class TestLinuxTracing:
    """Tracing wraps the linux fault protocol; it never changes what runs."""

    # 256 pages hold the 160-page file; 64 force direct reclaim and
    # background writeback under SMT CPI scaling.
    @pytest.mark.parametrize("cache_pages", [256, 64])
    def test_smt_write_mix_traced_equals_untraced(self, cache_pages):
        untraced = _run("linux", False, False, 32, 0.3, spans=False, cache_pages=cache_pages)
        traced = _run("linux", False, False, 32, 0.3, spans=True, cache_pages=cache_pages)
        problems = diff_digests(untraced[0], traced[0])
        assert not problems, "tracing changed the run:\n  " + "\n  ".join(problems[:5])
        _, rows, engine, threads = traced
        assert all(t.clock.cpi_factor == 1.4 for t in threads)
        assert any(not t.clock.now.is_integer() for t in threads)
        assert engine.wp_faults > 0
        names = {row[4] for row in rows}
        assert {"fault", "fault.wp", "fault.alloc", "fault.io"} <= names
        if cache_pages < 160:
            assert engine.reclaim_runs > 0
            assert {"reclaim", "writeback.bg"} <= names


def _run_tenants(batched, fastforward):
    """An out-of-memory Aquila cell under every condition at once.

    Two tenant files (160 pages each) share a 64-page cache under a
    static QoS partition that lets tenant ``a`` keep only 8 pages, so
    victim selection reorders the LRU walk.  32 threads on 16 physical
    cores run at CPI 1.4, 30% of the accesses are stores (some victims
    are dirty), and a span is open on every thread clock.
    """
    stack = make_aquila_stack("pmem", 64)
    engine = stack.engine
    engine.fastforward = batched and fastforward
    files = [stack.allocator.create(f"tenant-{name}", 160 * units.PAGE_SIZE)
             for name in "ab"]
    partition = CachePartition("static")
    for name, file in zip("ab", files):
        partition.assign(file.file_id, name)
    partition.set_quota("a", 8)
    partition.set_quota("b", 56)
    engine.cache.partition = partition
    executor = Executor(batched=batched, quiescent=engine.run_ahead_unbounded_ok)
    threads = []
    mappings = []
    with TRACER.isolated(enable=True):
        for index in range(32):
            thread = engine.machine.thread(index % engine.machine.topology.num_hw_threads)
            threads.append(thread)
            if len(mappings) < len(files):
                mappings.append(engine.mmap(thread, files[len(mappings)]))
                mappings[-1].madvise(thread, MADV_RANDOM)
            work = access_workload(
                thread, mappings[index % 2], 300, 0.3, False, 11,
                partition_index=index // 2, partition_count=16,
            )
            executor.add(thread, _spanned(thread, work))
        engine.machine.apply_smt_penalty(threads)
        result = executor.run()
        assert TRACER.dropped == 0
        rows = _span_rows(TRACER)
    return mmio_state_digest(stack, result), rows, engine, threads


class TestAquilaOutOfMemory:
    """One Aquila fault and eviction protocol in every executor mode."""

    def test_partitioned_smt_write_mix_under_spans(self):
        runs = {label: _run_tenants(batched, ff) for label, batched, ff in MODES}
        reference, reference_rows, _, _ = runs["unbatched"]
        for label in ("batched", "fastforward"):
            digest, rows, _, _ = runs[label]
            problems = diff_digests(reference, digest)
            assert not problems, f"{label} diverged:\n  " + "\n  ".join(problems[:5])
            assert rows == reference_rows, f"{label} spans diverged"
        _, rows, engine, threads = runs["fastforward"]
        assert all(t.clock.cpi_factor == 1.4 for t in threads)
        assert engine.eviction_batches > 0
        assert engine.io_path.device.bytes_written > 0, "no dirty victim written back"
        names = {row[4] for row in rows}
        assert {"fault", "fault.alloc", "fault.io", "evict", "writeback.io"} <= names


class TestRetireFaults:
    """The one-op path raises what the per-op load/store protocol raises."""

    PAGES = 8

    def _setup(self, engine_kind, mode, prot=None):
        stack = MAKERS[engine_kind]("pmem", 64)
        engine = stack.engine
        file = stack.allocator.create("bounds", self.PAGES * units.PAGE_SIZE)
        thread = engine.machine.thread(0)
        kwargs = {} if prot is None else {"prot": prot}
        mapping = engine.mmap(thread, file, **kwargs)
        mapping.load(thread, 0, 8)              # page 0 resident: a hit
        _, batched, fastforward = mode
        engine.fastforward = batched and fastforward
        if batched:
            thread.run_horizon = math.inf if fastforward else thread.clock.now + 1e6
        return engine, mapping, thread

    @staticmethod
    def _raised(call):
        with pytest.raises((SegmentationFault, ProtectionFault)) as info:
            call()
        return type(info.value), info.value.address, str(info.value)

    @pytest.mark.parametrize("engine_kind", sorted(MAKERS))
    @pytest.mark.parametrize("mode", MODES, ids=[m[0] for m in MODES])
    def test_out_of_range_page(self, engine_kind, mode):
        engine, mapping, thread = self._setup(engine_kind, mode)
        for page in (self.PAGES + 3, -1):
            plan = AccessPlan([0, page], [16, 40], [False, False])
            assert engine.retire(thread, mapping, plan, 0, WRITE_DATA) == 1
            got = self._raised(
                lambda: engine.retire(thread, mapping, plan, 1, WRITE_DATA)
            )
            want = self._raised(
                lambda: mapping.load(thread, page * units.PAGE_SIZE + 40, 8)
            )
            assert got == want
            assert got[0] is SegmentationFault

    @pytest.mark.parametrize("engine_kind", sorted(MAKERS))
    @pytest.mark.parametrize("mode", MODES, ids=[m[0] for m in MODES])
    def test_store_to_read_only_mapping(self, engine_kind, mode):
        engine, mapping, thread = self._setup(engine_kind, mode, prot=PROT_READ)
        plan = AccessPlan([0, 0], [16, 24], [False, True])
        assert engine.retire(thread, mapping, plan, 0, WRITE_DATA) == 1
        got = self._raised(lambda: engine.retire(thread, mapping, plan, 1, WRITE_DATA))
        want = self._raised(lambda: mapping.store(thread, 24, WRITE_DATA))
        assert got == want
        assert got[0] is ProtectionFault


class TestRetireInterference:
    """Interference maturing inside a hit run keeps the ledgers' key order.

    The analogue of ``test_load_run``'s interference variant for
    ``retire``: a fresh thread at CPI 1.4 retires a store/load plan over
    resident, writable pages while posts mature mid-run.  The run first
    hits the pages still in the TLB, then walks.  The first absorb adds
    ``interference.ipi`` to a ledger that already holds the run's first
    categories, either before the walks start (``tlb.miss_walk`` then
    enters last) or after; later absorbs find it present.  Retired as
    one batched hit run or one op at a time, the breakdown must hold the
    same values in the same key order.
    """

    PAGES = 24
    TLB_CAPACITY = 8
    LATER_POSTS = (900, 2000)

    def _observe(self, engine_kind, batched, span_open, first_post):
        stack = MAKERS[engine_kind]("pmem", 64)
        engine = stack.engine
        for tlb in stack.machine.tlbs:
            tlb.capacity = self.TLB_CAPACITY
        file = stack.allocator.create("ipi", self.PAGES * units.PAGE_SIZE)
        setup = engine.machine.thread(0)
        mapping = engine.mmap(setup, file)
        mapping.madvise(setup, MADV_RANDOM)
        for page in range(self.PAGES):
            mapping.store(setup, page * units.PAGE_SIZE, WRITE_DATA)
        # The last TLB_CAPACITY pages stored are still cached: the run
        # hits them first, then walks for every older page.
        recent = list(range(self.PAGES - self.TLB_CAPACITY, self.PAGES))
        pages = recent + list(range(self.PAGES)) * 3
        offsets = [(17 * i) % 4000 for i in range(len(pages))]
        plan = AccessPlan(pages, offsets, [i % 3 == 0 for i in range(len(pages))])
        thread = engine.machine.thread(0)
        thread.clock.now = setup.clock.now
        thread.clock.cpi_factor = 1.4
        for when in (first_post,) + self.LATER_POSTS:
            stack.machine.interference.post(thread.core, 700, thread.clock.now + when)
        with TRACER.isolated(enable=span_open):
            with TRACER.span("cell", thread.clock) if span_open else contextlib.nullcontext():
                thread.run_horizon = math.inf if batched else None
                index = 0
                while index < len(pages):
                    index += engine.retire(thread, mapping, plan, index, WRITE_DATA)
                thread.run_horizon = None
        return {
            "breakdown": list(thread.clock.breakdown.as_dict().items()),
            "digest": mmio_state_digest(stack, RunResult([thread])),
            "tlb_order": [list(tlb.resident) for tlb in stack.machine.tlbs],
            "pending": stack.machine.interference.pending(thread.core),
            "batched_hits": engine.batched_hits,
        }

    #: First post send time (cycles after the run starts) -> the order
    #: it must leave among the hit loop's categories: inside the TLB-hit
    #: prefix, or after the first walk.
    ORDERS = {
        20: ["app.access", "interference.ipi", "tlb.miss_walk"],
        150: ["app.access", "tlb.miss_walk", "interference.ipi"],
    }

    @pytest.mark.parametrize("first_post", sorted(ORDERS))
    @pytest.mark.parametrize("span_open", [False, True], ids=["no-span", "span"])
    @pytest.mark.parametrize("engine_kind", sorted(MAKERS))
    def test_batched_run_keeps_breakdown_key_order(self, engine_kind, span_open, first_post):
        reference = self._observe(engine_kind, False, span_open, first_post)
        candidate = self._observe(engine_kind, True, span_open, first_post)
        problems = diff_digests(reference["digest"], candidate["digest"])
        assert not problems, "state diverged:\n  " + "\n  ".join(problems[:5])
        for key in ("breakdown", "tlb_order", "pending"):
            assert candidate[key] == reference[key], f"{key} diverged"
        assert reference["batched_hits"] == 0
        assert candidate["batched_hits"] > 2 * self.PAGES
        assert candidate["pending"] == 0, "a post never matured"
        expected = self.ORDERS[first_post]
        assert [c for c, _ in candidate["breakdown"] if c in expected] == expected
