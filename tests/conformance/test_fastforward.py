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

from repro.fault.plan import FaultSpec, clear_plan
from repro.sim.conformance import (
    MMIO_ENGINE_KINDS,
    assert_fastforward_agrees,
    run_cell,
)

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

    def test_tlb_overflow_cuts_the_window(self):
        # 1600 distinct pages > the 1536-entry TLB: the closed form's
        # no-TLB-eviction assumption fails mid-window, so the profile
        # must cut at the first overflowing access and hand the rest to
        # the loop — which evicts TLB entries one by one, identically.
        digest = assert_fastforward_agrees(
            run_cell,
            engine_kind="aquila",
            seed=47,
            num_threads=1,
            write_fraction=0.0,
            accesses_per_thread=4000,
            dataset_pages=1600,
            cache_pages=2048,
        )
        assert len(digest["tlbs"][0]["resident"]) <= 1536

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

    @staticmethod
    def _run_engine(**overrides):
        from repro.bench.setups import make_aquila_stack
        from repro.common import units
        from repro.mmio.files import BackingFile
        from repro.sim.executor import SimThread
        from repro.workloads.microbench import MicrobenchConfig, run_microbench

        params = dict(
            cache_pages=256,
            dataset_pages=160,
            num_threads=4,
            accesses_per_thread=900,
            touch_once=True,
            write_fraction=0.0,
        )
        params.update(overrides)
        SimThread.reset_ids()
        BackingFile.reset_ids()
        stack = make_aquila_stack("pmem", params["cache_pages"])
        f = stack.allocator.create(
            "engage-ff", params["dataset_pages"] * units.PAGE_SIZE
        )
        cfg = MicrobenchConfig(
            num_threads=params["num_threads"],
            accesses_per_thread=params["accesses_per_thread"],
            touch_once=params["touch_once"],
            write_fraction=params["write_fraction"],
            batched=True,
            fastforward=True,
        )
        run_microbench(stack.engine, f, cfg)
        return stack.engine

    def test_analytic_windows_fire_in_memory(self):
        engine = self._run_engine()
        assert engine.ff_runs > 0, "no analytic window retired"
        assert engine.ff_hits >= engine.ff_runs * 64  # MIN_ANALYTIC_RUN

    def test_mode_counters_stay_out_of_the_digest(self):
        digest = run_cell(
            "aquila", True, seed=11, accesses_per_thread=900,
            dataset_pages=160, fastforward=True,
        )
        for counter in ("ff_runs", "ff_hits", "fastforward"):
            assert counter not in digest["engine"]
