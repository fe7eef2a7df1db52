"""Fast-forward conformance tier: analytic == batched == unbatched.

The analytic fast-forward (``repro.sim.fastforward``) retires quiescent
all-hit windows in closed form; faults and evictions take the one
reference protocol in every mode.  Admissibility is the same bar the batched scheduler had to clear:
**nothing observable may change**.  Every test here runs one cell in all
three modes — unbatched min-heap, epoch-batched, batched + fast-forward —
and asserts the complete state digests agree bit for bit (clocks, latency
streams, per-category cycle breakdowns, page table, TLB contents and
counters, cache pages down to byte checksums, device bytes, every engine
counter minus the mode metadata).

The matrix covers the three mmio engines, clean and fault-injected devices,
shared and private files, in-memory and out-of-memory datasets
(satellite: the certificate's miss-rate extension), plus adversarial
configurations engineered to sit exactly on the certificate's decision
boundaries — where the only acceptable outcomes are "fast-forward
correctly" or "fall back to the loop", never a divergence.
"""

import pytest

from repro.bench.setups import make_aquila_stack
from repro.common import units
from repro.fault.plan import FaultSpec, clear_plan
from repro.mmio.vma import MADV_RANDOM
from repro.obs import TRACER
from repro.sim.conformance import (
    MMIO_ENGINE_KINDS,
    assert_fastforward_agrees,
    diff_digests,
    mmio_state_digest,
    run_cell,
)
from repro.sim.executor import Executor
from repro.workloads.microbench import access_workload

FAULTY_SPEC = FaultSpec(error_rate=0.02, latency_rate=0.02, torn_rate=0.01)


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    clear_plan()


class TestFastforwardConformance:
    """The satellite matrix: engines x clean/faulted x sharing x fit."""

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_in_memory_shared(self, engine_kind):
        assert_fastforward_agrees(run_cell, engine_kind=engine_kind, seed=7)

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_in_memory_private(self, engine_kind):
        assert_fastforward_agrees(
            run_cell, engine_kind=engine_kind, seed=5, shared_file=False
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_in_memory_reaccess_tail(self, engine_kind):
        # Read-only with a long re-access tail: the quiescence certificate
        # grants unbounded horizons and the analytic window covers the
        # whole tail — the most aggressive fast-forward there is.
        assert_fastforward_agrees(
            run_cell,
            engine_kind=engine_kind,
            seed=19,
            write_fraction=0.0,
            accesses_per_thread=1200,
            dataset_pages=160,
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_out_of_memory_shared(self, engine_kind):
        # Steady-state eviction: the miss-rate model must keep the
        # analytic setup out of the way of the fault/eviction protocol —
        # all still bit-exact.
        assert_fastforward_agrees(
            run_cell,
            engine_kind=engine_kind,
            seed=13,
            touch_once=False,
            dataset_pages=256,
            cache_pages=64,
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_out_of_memory_private(self, engine_kind):
        assert_fastforward_agrees(
            run_cell,
            engine_kind=engine_kind,
            seed=23,
            touch_once=False,
            shared_file=False,
            dataset_pages=256,
            cache_pages=64,
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_faulted_out_of_memory(self, engine_kind):
        digest = assert_fastforward_agrees(
            run_cell,
            engine_kind=engine_kind,
            seed=29,
            touch_once=False,
            dataset_pages=256,
            cache_pages=64,
            fault_spec=FAULTY_SPEC,
            fault_seed=29,
        )
        assert digest["fault_schedule"], "fault plan injected nothing"

    def test_faulted_in_memory(self):
        # Injected faults make the DAX reads retry inside the fault
        # protocol; every mode must retry identically.
        digest = assert_fastforward_agrees(
            run_cell,
            engine_kind="aquila",
            seed=31,
            fault_spec=FAULTY_SPEC,
            fault_seed=31,
        )
        assert digest["fault_schedule"], "fault plan injected nothing"

    def test_writes_interleaved(self):
        assert_fastforward_agrees(
            run_cell,
            engine_kind="aquila",
            seed=37,
            write_fraction=0.5,
            touch_once=False,
            dataset_pages=256,
            cache_pages=64,
        )


class TestAdversarialCertificate:
    """Configs engineered to sit exactly on a certificate boundary.

    The decision the certificate (and its refinement cuts) makes is
    allowed to go either way — fast-forward or fall back — but the
    digests must never diverge.
    """

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_eviction_boundary_cache_pages(self, delta):
        # dataset == cache +/- 1 page: one page over capacity makes
        # eviction reachable and must revoke unbounded run-ahead; one
        # page under keeps it granted.  Both sides must stay bit-exact.
        assert_fastforward_agrees(
            run_cell,
            engine_kind="aquila",
            seed=41,
            write_fraction=0.0,
            accesses_per_thread=900,
            dataset_pages=192,
            cache_pages=192 + delta,
        )

    def test_horizon_straddling_runs(self):
        # Writes keep the certificate revoked, so every hit run gets a
        # finite epoch horizon and straddles it mid-plan; the analytic
        # path (which requires an infinite horizon) must stand aside
        # without leaving partial state behind.
        assert_fastforward_agrees(
            run_cell,
            engine_kind="aquila",
            seed=43,
            write_fraction=0.2,
            accesses_per_thread=900,
            dataset_pages=160,
        )

    def test_tlb_overflow_replays_the_window(self):
        # 1600 distinct pages > the 1536-entry TLB: the window's new pages
        # outnumber the TLB's free slots, so the TLB replays the window's
        # LRU access by access (evicting entries exactly as the loop
        # does) and reports which accesses walked; the window is not cut.
        config = dict(
            seed=47,
            num_threads=1,
            write_fraction=0.0,
            accesses_per_thread=4000,
            dataset_pages=1600,
            cache_pages=2048,
        )
        digest = assert_fastforward_agrees(run_cell, engine_kind="aquila", **config)
        assert len(digest["tlbs"][0]["resident"]) == 1536
        engine, _ = _run_engine(**config)
        assert engine.ff_runs > 0, "no analytic window retired past TLB capacity"

    @pytest.mark.parametrize("accesses", [63, 64, 65])
    def test_min_analytic_run_boundary(self, accesses):
        # Around MIN_ANALYTIC_RUN the gate flips between analytic and
        # loop retirement; both must be invisible.
        assert_fastforward_agrees(
            run_cell,
            engine_kind="aquila",
            seed=53,
            num_threads=1,
            write_fraction=0.0,
            accesses_per_thread=accesses,
            dataset_pages=32,
        )

    def test_smt_oversubscription(self):
        # 36 threads on 32 hardware threads: core sharing degrades the
        # executor to zero-quantum scheduling; fast-forward must follow.
        assert_fastforward_agrees(
            run_cell,
            engine_kind="aquila",
            seed=9,
            num_threads=36,
            accesses_per_thread=64,
        )


class TestFastforwardEngages:
    """Non-vacuity: the fast paths must actually fire where designed."""

    def test_analytic_windows_fire_in_memory(self):
        engine, _ = _run_engine()
        assert engine.ff_runs > 0, "no analytic window retired"
        assert engine.ff_hits >= engine.ff_runs * 64  # MIN_ANALYTIC_RUN

    def test_tlb_overflow_cell(self):
        # A solo thread re-reading 1600 pages through a 1536-entry TLB.
        engine, _ = _run_engine(
            num_threads=1, dataset_pages=1600, cache_pages=2048, accesses_per_thread=4000
        )
        assert engine.ff_runs > 0, "no analytic window retired past TLB capacity"
        assert engine.ff_hits == engine.batched_hits

    def test_smt_cell(self):
        # 32 threads on 16 physical cores: every clock runs at CPI 1.4.
        engine, threads = _run_engine(num_threads=32, dataset_pages=256)
        assert all(t.clock.cpi_factor == 1.4 for t in threads)
        assert engine.ff_runs > 0, "no analytic window retired at CPI 1.4"

    def test_traced_cell(self):
        # A span stays open on every clock: the windows charge it too.
        engine, _ = _run_engine(spans=True)
        assert engine.ff_runs > 0, "no analytic window retired under an open span"

    def test_mode_counters_stay_out_of_the_digest(self):
        digest = run_cell(
            "aquila", True, seed=11, accesses_per_thread=900,
            dataset_pages=160, fastforward=True,
        )
        for counter in ("ff_runs", "ff_hits", "fastforward"):
            assert counter not in digest["engine"]


#: (batched, fastforward) for the three executor modes.
MODES = ((False, False), (True, False), (True, True))


class TestFigureCells:
    """fig10a's 1- and 32-thread cells at figure scale, in all three modes.

    t1 re-reads 2048 pages through the 1536-entry TLB; t32 runs at CPI
    1.4.  Besides the strict digest, each thread's breakdown must list its
    categories in the same order in every mode: the digest sorts keys, but
    order-dependent float sums such as ``prefix_total`` follow it.
    """

    @pytest.mark.parametrize("cell_id", ["fig10a/shared/linux/t1", "fig10a/shared/aquila/t32"])
    def test_modes_agree_down_to_breakdown_order(self, cell_id):
        from repro.bench.experiments.fig10 import run_cell
        from repro.bench.sweep import enumerate_cells

        (params,) = [c["params"] for c in enumerate_cells(["fig10a"]) if c["cell_id"] == cell_id]
        runs = []
        for batched, fastforward in MODES:
            _, stack, result = run_cell(
                **params, batched=batched, fastforward=fastforward
            )
            orders = [list(t.clock.breakdown.as_dict()) for t in result.threads]
            runs.append((mmio_state_digest(stack, result), orders, stack.engine))
        reference, reference_orders, _ = runs[0]
        for digest, orders, _ in runs[1:]:
            problems = diff_digests(reference, digest)
            assert not problems, "\n  ".join(problems[:5])
            assert orders == reference_orders
        engine = runs[2][2]
        assert engine.ff_hits == engine.batched_hits > 0


def _spanned(thread, work):
    """Run ``work`` with one span open on ``thread``'s clock throughout."""
    with TRACER.span("cell", thread.clock):
        yield from work


def _run_engine(spans=False, **overrides):
    """A batched, fast-forwarding aquila microbenchmark cell; returns
    ``(engine, threads)``.  With ``spans`` a span is open on every clock."""
    params = dict(
        cache_pages=256,
        dataset_pages=160,
        num_threads=4,
        accesses_per_thread=900,
        touch_once=True,
        write_fraction=0.0,
        seed=7,
    )
    params.update(overrides)
    stack = make_aquila_stack("pmem", params["cache_pages"])
    engine = stack.engine
    engine.fastforward = True
    file = stack.allocator.create("engage-ff", params["dataset_pages"] * units.PAGE_SIZE)
    executor = Executor(batched=True, quiescent=engine.run_ahead_unbounded_ok)
    threads = []
    with TRACER.isolated(enable=spans):
        for index in range(params["num_threads"]):
            thread = engine.machine.thread(index % engine.machine.topology.num_hw_threads)
            threads.append(thread)
            if index == 0:
                mapping = engine.mmap(thread, file)
                mapping.madvise(thread, MADV_RANDOM)
            work = access_workload(
                thread, mapping, params["accesses_per_thread"], params["write_fraction"],
                params["touch_once"], params["seed"],
                partition_index=index, partition_count=params["num_threads"],
            )
            executor.add(thread, _spanned(thread, work) if spans else work)
        engine.machine.apply_smt_penalty(threads)
        executor.run()
    return engine, threads
