"""Property-based conformance: batched == unbatched, bit for bit.

Every cell replays one seed-generated workload under the unbatched
min-heap scheduler and the epoch-batched scheduler and asserts the
complete state digests agree exactly: per-thread clocks and latency
streams, page table, TLBs, cache contents down to page-byte checksums,
durable device bytes, and every engine counter (minus the two counters
that *describe* batching).  See ``repro.sim.conformance``.
"""

import pytest

from repro.fault.plan import FaultSpec, clear_plan
from repro.sim.conformance import (
    ENGINE_KINDS,
    MMIO_ENGINE_KINDS,
    MODE_COUNTERS,
    assert_modes_agree,
    run_cell,
    run_explicit_cell,
)

FAULTY_SPEC = FaultSpec(error_rate=0.02, latency_rate=0.02, torn_rate=0.01)

SEEDS = [1, 7, 23]


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    clear_plan()


def _mmio(engine_kind, batched, seed, **kwargs):
    return run_cell(engine_kind, batched, seed=seed, **kwargs)


class TestCleanConformance:
    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_in_memory_shared(self, engine_kind, seed):
        assert_modes_agree(_mmio, engine_kind=engine_kind, seed=seed)

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_in_memory_reaccess_heavy(self, engine_kind):
        # More accesses than pages: the touch-once plan re-accesses owned
        # pages, which is the pure-hit regime run-ahead accelerates most.
        assert_modes_agree(
            _mmio,
            engine_kind=engine_kind,
            seed=11,
            accesses_per_thread=900,
            dataset_pages=160,
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_read_only_unbounded_certificate(self, engine_kind):
        # write_fraction=0 and an in-cache dataset keep the engine's
        # quiescence certificate (run_ahead_unbounded_ok) true for the
        # whole run, so each thread retires its re-access tail under an
        # infinite horizon — the most aggressive batching the executor
        # ever does, and it must still be bit-exact.
        assert_modes_agree(
            _mmio,
            engine_kind=engine_kind,
            seed=19,
            write_fraction=0.0,
            accesses_per_thread=1200,
            dataset_pages=160,
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_private_files(self, engine_kind):
        assert_modes_agree(
            _mmio, engine_kind=engine_kind, seed=5, shared_file=False
        )

    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    def test_out_of_memory_evictions(self, engine_kind):
        # Eviction + shootdown heavy: every barrier-op hazard is live.
        assert_modes_agree(
            _mmio,
            engine_kind=engine_kind,
            seed=13,
            touch_once=False,
            dataset_pages=1024,
            cache_pages=128,
        )

    def test_single_thread_infinite_horizon(self):
        assert_modes_agree(
            _mmio, engine_kind="aquila", seed=3, num_threads=1
        )

    def test_smt_core_sharing_disables_run_ahead_but_stays_exact(self):
        # 33+ threads can't fit 32 hardware threads; cores collide and the
        # executor degrades to zero quantum — results must still match.
        assert_modes_agree(
            _mmio,
            engine_kind="aquila",
            seed=9,
            num_threads=36,
            accesses_per_thread=64,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_explicit_solo(self, seed):
        assert_modes_agree(run_explicit_cell, seed=seed)

    def test_explicit_multithreaded_fallback(self, ):
        assert_modes_agree(run_explicit_cell, seed=17, num_threads=4)


class TestFaultyConformance:
    @pytest.mark.parametrize("engine_kind", MMIO_ENGINE_KINDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mmio_with_faults(self, engine_kind, seed):
        # Out-of-memory so device traffic (the faultable surface) is heavy;
        # the digest includes the injected fault schedule itself.
        digest = assert_modes_agree(
            _mmio,
            engine_kind=engine_kind,
            seed=seed,
            touch_once=False,
            dataset_pages=768,
            cache_pages=96,
            fault_spec=FAULTY_SPEC,
            fault_seed=seed,
        )
        assert digest["fault_schedule"], "fault plan injected nothing"

    def test_explicit_with_faults(self):
        digest = assert_modes_agree(
            run_explicit_cell,
            seed=29,
            reads_per_thread=400,
            cache_pages=16,
            file_pages=128,
            fault_spec=FAULTY_SPEC,
            fault_seed=4,
        )
        assert digest["fault_schedule"], "fault plan injected nothing"


class TestBatchingEngages:
    """The fast path must actually fire — a vacuous conformance pass
    (batched mode never batching) would prove nothing."""

    def test_mode_counters_excluded_from_digest(self):
        digest = run_cell(
            "aquila", True, seed=11, accesses_per_thread=900, dataset_pages=160
        )
        assert "hit_runs" not in digest["engine"]
        assert "batched_hits" not in digest["engine"]

    def test_mode_counters_nonzero_in_batched_mode(self):
        from repro.bench.setups import make_aquila_stack
        from repro.common import units
        from repro.workloads.microbench import MicrobenchConfig, run_microbench

        stack = make_aquila_stack("pmem", 256)
        f = stack.allocator.create("engage", 160 * units.PAGE_SIZE)
        cfg = MicrobenchConfig(
            num_threads=4, accesses_per_thread=900, touch_once=True, batched=True
        )
        run_microbench(stack.engine, f, cfg)
        assert stack.engine.hit_runs > 0
        assert stack.engine.batched_hits > stack.engine.hit_runs
        assert MODE_COUNTERS == {
            "hit_runs",
            "batched_hits",
            "ff_runs",
            "ff_hits",
            "fastforward",
        }

    def test_explicit_read_run_engages_solo(self):
        from repro.sim.conformance import run_explicit_cell

        digest = run_explicit_cell(True, reads_per_thread=300, cache_pages=64,
                                   file_pages=48, seed=2)
        # Small file + big cache => hit-heavy; cache counters must show
        # the same hits as unbatched (they are real hits, not metadata).
        assert digest["cache_counters"]["hits"] > 0

    def test_engine_matrix_is_complete(self):
        assert set(ENGINE_KINDS) == {"aquila", "linux", "kmmap", "explicit"}
