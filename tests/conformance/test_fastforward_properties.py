"""Property-based tests for the analytic fast-forward closed forms.

Two layers, mirroring the fault differential suite's seeded-random
style (200+ generated cases, deterministic by seed):

* **Unit properties** — the vectorized closed forms in
  ``repro.sim.fastforward`` (:func:`window_profile`, :func:`write_cut`,
  :func:`stepped_clock`, :func:`expected_hit_run_length`) are re-derived
  with naive Python loops over random windows and must agree exactly,
  duplicates, degenerate shapes, non-integer steps and clocks near 2**53
  included.

* **Whole-kernel properties** — seed-generated random cell configs run
  batched with and without fast-forward; the full-state digests (cycle
  totals, per-stage attribution, latency streams, TLB and LRU recency
  order, cache byte checksums) must be equal.  The config generator
  deliberately wanders across the certificate's terrain: in-memory and
  out-of-memory datasets, write mixes, touch-once vs re-access, solo
  threads (some over more pages than the TLB holds), SMT thread counts
  (CPI 1.4) and oversubscription, and interleaved-thread schedules.
"""

import math
import random

import numpy as np
import pytest

from repro.sim.conformance import MMIO_ENGINE_KINDS, diff_digests, run_cell
from repro.sim.fastforward import (
    expected_hit_run_length,
    stepped_clock,
    window_profile,
    write_cut,
)

#: Unit-property volume: seeded random windows per closed form.
PROFILE_CASES = 200
WRITE_CUT_CASES = 100
STEPPED_CLOCK_CASES = 200

#: Whole-kernel volume: seeded random cell configs, in batches to keep
#: pytest output readable (like the differential suite).
CELL_BATCHES = 6
CELLS_PER_BATCH = 20


def _random_window(rng, max_pages=64, max_len=400):
    """A random page-index window with a bias toward heavy duplication."""
    num_pages = rng.randint(1, max_pages)
    n = rng.randint(0, max_len)
    hot = rng.randint(1, num_pages)  # small hot sets → many duplicates
    window = [rng.randrange(hot) for _ in range(n)]
    return np.asarray(window, dtype=np.int64), num_pages


class TestWindowProfileProperty:
    """window_profile == a naive first/last occurrence scan."""

    def test_matches_naive_scan(self):
        rng = random.Random(0xF0F0)
        for case in range(PROFILE_CASES):
            window, num_pages = _random_window(rng)
            touched, first, last = window_profile(window, num_pages)
            naive_first, naive_last = {}, {}
            for pos, page in enumerate(window.tolist()):
                naive_first.setdefault(page, pos)
                naive_last[page] = pos
            assert touched.tolist() == sorted(naive_first), f"case {case}"
            n = int(window.shape[0])
            for page in range(num_pages):
                assert first[page] == naive_first.get(page, n), f"case {case}"
                assert last[page] == naive_last.get(page, -1), f"case {case}"

    def test_untouched_pages_are_sentinels(self):
        window = np.asarray([2, 2, 5], dtype=np.int64)
        touched, first, last = window_profile(window, 8)
        assert touched.tolist() == [2, 5]
        assert first[0] == 3 and last[0] == -1
        assert first[2] == 0 and last[2] == 1
        assert first[5] == 2 and last[5] == 2


class TestWriteCutProperty:
    """write_cut == index of the first True in [index, limit)."""

    def test_matches_naive_scan(self):
        rng = random.Random(0xBEEF)
        for case in range(WRITE_CUT_CASES):
            n = rng.randint(1, 300)
            flags = [rng.random() < rng.choice((0.0, 0.02, 0.5)) for _ in range(n)]
            arr = np.asarray(flags, dtype=bool)
            index = rng.randint(0, n - 1)
            limit = rng.randint(index, n)
            expected = limit
            for pos in range(index, limit):
                if flags[pos]:
                    expected = pos
                    break
            assert write_cut(arr, index, limit) == expected, f"case {case}"


class TestSteppedClockProperty:
    """stepped_clock == the hit loop's ``now += step`` sequence, bit for bit."""

    @staticmethod
    def _naive(now, count, walked, hit_step, walk_step):
        walked = set(walked)
        latencies = []
        for pos in range(count):
            start = now
            if pos in walked:
                now += walk_step
            now += hit_step
            latencies.append(now - start)
        return now, latencies

    def test_matches_naive_loop(self):
        rng = random.Random(0xC10C)
        for case in range(STEPPED_CLOCK_CASES):
            count = rng.randint(0, 300)
            density = rng.choice((0.0, 0.05, 0.5, 1.0))
            walked = [pos for pos in range(count) if rng.random() < density]
            cpi = rng.choice((1.0, 1.4, rng.uniform(1.0, 3.0)))
            hit_step, walk_step = 6 * cpi, 100 * cpi
            now = rng.choice(
                (
                    0.0,
                    float(rng.randrange(1 << 40)),
                    rng.uniform(0.0, 1e12),
                    2.0**53 - rng.randrange(4096),
                    2.0**53 + 2.0 * rng.randrange(64),
                    rng.uniform(2.0**52, 2.0**54),
                )
            )
            end, latencies = stepped_clock(now, count, walked, hit_step, walk_step)
            expected_end, expected = self._naive(now, count, walked, hit_step, walk_step)
            assert end.hex() == expected_end.hex(), f"case {case}"
            assert [x.hex() for x in latencies.tolist()] == [x.hex() for x in expected], (
                f"case {case}"
            )

    def test_no_accesses(self):
        end, latencies = stepped_clock(12.5, 0, [], 8.4, 140.0)
        assert end == 12.5 and latencies.shape == (0,)


class TestMissRateModel:
    """expected_hit_run_length: the certificate's eviction-regime model."""

    def test_in_memory_is_unbounded(self):
        assert expected_hit_run_length(128, 128) == math.inf
        assert expected_hit_run_length(1, 4096) == math.inf

    def test_no_cache_is_zero(self):
        assert expected_hit_run_length(128, 0) == 0.0

    def test_geometric_formula(self):
        # 256 pages in 192 frames: miss rate 1/4, expected run 4.
        assert expected_hit_run_length(256, 192) == pytest.approx(4.0)

    def test_monotone_in_capacity(self):
        runs = [expected_hit_run_length(1024, c) for c in range(1, 1024, 7)]
        assert all(a <= b for a, b in zip(runs, runs[1:]))


def _random_cell_config(rng):
    """One seed-generated kernel cell wandering the certificate terrain."""
    # 17-32 threads share physical cores: CPI 1.4 without oversubscription.
    num_threads = rng.choice([1, 1, 2, 4, 4, 8, 16, 20, 32, 33, 36])
    dataset_pages = rng.choice([24, 64, 160, 192, 256, 384])
    accesses = rng.choice([70, 150, 300, 500])
    if num_threads == 1 and rng.random() < 0.3:
        # More pages than the 1536-entry TLB holds, re-read.
        dataset_pages = rng.choice([1600, 2048])
        accesses = rng.choice([2500, 4000])
    cache_pages = rng.choice(
        [dataset_pages // 2, dataset_pages - 1, dataset_pages,
         dataset_pages + 1, 2 * dataset_pages, 256]
    )
    return dict(
        engine_kind=rng.choice(MMIO_ENGINE_KINDS),
        num_threads=num_threads,
        accesses_per_thread=accesses,
        dataset_pages=dataset_pages,
        cache_pages=max(1, cache_pages),
        write_fraction=rng.choice([0.0, 0.0, 0.0, 0.1, 0.25, 0.5]),
        touch_once=rng.random() < 0.5,
        shared_file=rng.random() < 0.7,
        seed=rng.randrange(1 << 30),
    )


def _assert_digests_equal(cfg, with_ff, without_ff):
    problems = diff_digests(without_ff, with_ff)
    assert not problems, (
        f"fast-forward digest diverged for config {cfg}: " + "\n  ".join(problems[:5])
    )


class TestRandomCellsAgree:
    """Seeded random cells: analytic replay == slim loop, bit for bit."""

    @pytest.mark.parametrize("batch", range(CELL_BATCHES))
    def test_fastforward_matches_loop(self, batch):
        rng = random.Random(0xACE0 + batch)
        for case in range(CELLS_PER_BATCH):
            cfg = _random_cell_config(rng)
            loop = run_cell(batched=True, fastforward=False, **cfg)
            ff = run_cell(batched=True, fastforward=True, **cfg)
            _assert_digests_equal(cfg, ff, loop)


class TestThreadScheduleEdges:
    """SMT and interleaved-thread edge cases called out by the issue."""

    def test_smt_oversubscribed_reaccess(self):
        # More threads than hardware threads: core sharing forces the
        # zero-quantum scheduler; the analytic window must both engage
        # (long solo tails as threads drain) and stand aside (shared
        # cores are never certificate-covered) at the right moments.
        for seed in (3, 11, 59):
            cfg = dict(
                engine_kind="aquila", num_threads=36, accesses_per_thread=120,
                dataset_pages=96, write_fraction=0.0, touch_once=False,
                seed=seed,
            )
            loop = run_cell(batched=True, fastforward=False, **cfg)
            ff = run_cell(batched=True, fastforward=True, **cfg)
            _assert_digests_equal(cfg, ff, loop)

    def test_interleaved_threads_with_writes(self):
        # Two threads ping-ponging between runnable and quiescent, with
        # writes revoking the certificate mid-run: the analytic path
        # must only ever fire inside genuinely-unbounded horizons.
        for seed in (5, 21, 77):
            cfg = dict(
                engine_kind="aquila", num_threads=2, accesses_per_thread=600,
                dataset_pages=128, write_fraction=0.15, touch_once=False,
                seed=seed,
            )
            loop = run_cell(batched=True, fastforward=False, **cfg)
            ff = run_cell(batched=True, fastforward=True, **cfg)
            _assert_digests_equal(cfg, ff, loop)

    def test_solo_thread_long_tail(self):
        # The purest analytic regime: one thread, all reads, everything
        # resident — the whole tail should retire in closed form.
        cfg = dict(
            engine_kind="aquila", num_threads=1, accesses_per_thread=3000,
            dataset_pages=64, write_fraction=0.0, touch_once=False, seed=13,
        )
        loop = run_cell(batched=True, fastforward=False, **cfg)
        ff = run_cell(batched=True, fastforward=True, **cfg)
        _assert_digests_equal(cfg, ff, loop)
