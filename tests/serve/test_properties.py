"""Seeded property tests for the serving layer.

Three families of properties:

* **arrival moments** — exponential interarrival gaps match their closed
  form (mean ``m``, variance ``m²``) across hundreds of independent
  seeds, and schedules regenerate byte-identically from ``(seed,
  counter)`` (see also ``tests/sim/test_rand.py``);
* **queue conservation** — ``offered == admitted + shed`` and
  ``admitted == completed + in_flight`` hold at every step of the
  admission queue (checked against an independent brute-force reference)
  and at the end of full serve cells;
* **SLO monotonicity** — pooled victim p99 degrades monotonically as
  antagonist intensity rises through the sub-saturation range, at every
  pinned seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.admission import AdmissionQueue
from repro.serve.arrivals import BurstPhase, burst_schedule, poisson_schedule
from repro.serve.core import ServeConfig, run_serve, standard_tenants
from repro.sim.conformance import hash_digest
from repro.sim.rand import derive_seed, exponential_interarrivals


class TestArrivalMoments:
    """Closed-form moments of the exponential sampler, many seeds."""

    MEAN = 400.0
    COUNT = 256

    def _gaps(self, seed):
        base = derive_seed(seed, "serve-arrivals")
        return exponential_interarrivals(base, 7, self.COUNT, self.MEAN)

    @pytest.mark.parametrize("chunk", range(8))
    def test_moments_match_closed_form_256_seeds(self, chunk):
        # 8 chunks x 32 seeds = 256 independent seeded cases.  With 256
        # samples each, the sample mean sits ~16x its standard error
        # inside +/-30% and var/mean^2 (exactly 1 for an exponential)
        # inside [0.35, 1.75].
        for seed in range(chunk * 32, (chunk + 1) * 32):
            gaps = self._gaps(seed)
            assert len(gaps) == self.COUNT
            assert all(isinstance(g, int) and g >= 1 for g in gaps)
            mean = sum(gaps) / len(gaps)
            assert 0.7 * self.MEAN <= mean <= 1.3 * self.MEAN, f"seed {seed}"
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            assert 0.35 <= var / mean**2 <= 1.75, f"seed {seed}"

    def test_seed_ensemble_is_unbiased(self):
        # Across all 256 seeds the grand mean tightens to ~0.4%.
        means = [sum(self._gaps(seed)) / self.COUNT for seed in range(256)]
        grand = sum(means) / len(means)
        assert abs(grand / self.MEAN - 1.0) < 0.03

    def test_regeneration_is_byte_identical(self):
        base = derive_seed(11, "serve-arrivals")
        first = exponential_interarrivals(base, 3, 100, self.MEAN)
        second = exponential_interarrivals(base, 3, 100, self.MEAN)
        assert first == second
        # Counter-based streams are prefix-stable: a shorter draw is a
        # strict prefix of a longer one from the same (seed, tag).
        assert exponential_interarrivals(base, 3, 50, self.MEAN) == first[:50]

    def test_schedules_strictly_increase(self):
        base = derive_seed(13, "serve-arrivals")
        stamps = poisson_schedule(base, 200, 50.0)
        assert all(b > a for a, b in zip(stamps, stamps[1:]))
        bursty = burst_schedule(
            base, 200, 50.0, (BurstPhase(1000, 8.0), BurstPhase(3000, 0.5))
        )
        assert all(b > a for a, b in zip(bursty, bursty[1:]))


def _reference_admission(depth, arrivals, services):
    """Independent spec of drop-tail admission over a FIFO server.

    An arrival at ``a`` is admitted iff fewer than ``depth`` previously
    admitted requests have completion cycles > ``a``; admitted requests
    are served FIFO, so their completion cycles are fixed at admission.
    Returns (per-arrival decisions, completion cycles of admitted).
    """
    decisions, completions = [], []
    server_free = 0
    for arrival, service in zip(arrivals, services):
        occupancy = sum(1 for c in completions if c > arrival)
        if occupancy >= depth:
            decisions.append(False)
            continue
        decisions.append(True)
        server_free = max(server_free, arrival) + service
        completions.append(server_free)
    return decisions, completions


class TestAdmissionConservation:
    """AdmissionQueue against the brute-force reference, per step."""

    @settings(max_examples=200, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=6),
        gaps=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=60),
        data=st.data(),
    )
    def test_matches_reference(self, depth, gaps, data):
        services = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=200),
                min_size=len(gaps),
                max_size=len(gaps),
            )
        )
        arrivals, now = [], 0
        for gap in gaps:
            now += gap
            arrivals.append(now)
        decisions, completions = _reference_admission(depth, arrivals, services)

        queue = AdmissionQueue(depth)
        reported = 0
        for index, arrival in enumerate(arrivals):
            # Report completions in cycle order, as the serve loop does.
            while reported < len(completions) and (
                completions[reported] <= arrival
                and reported < decisions[: index].count(True)
            ):
                queue.on_completion(completions[reported])
                reported += 1
            assert queue.on_arrival(arrival) == decisions[index]
            # Conservation at every step.
            assert queue.offered == queue.admitted + queue.shed
            assert queue.admitted == queue.completed + queue.in_flight
            assert 0 <= queue.in_flight
        while reported < len(completions):
            queue.on_completion(completions[reported])
            reported += 1
        assert queue.offered == len(arrivals)
        assert queue.admitted == decisions.count(True)
        assert queue.shed == decisions.count(False)
        assert queue.completed == queue.admitted
        assert queue.in_flight == 0

    def test_rejects_bad_depth_and_spurious_completion(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)
        queue = AdmissionQueue(2)
        with pytest.raises(ValueError):
            queue.on_completion(1.0)


class TestServeCellConservation:
    """End-of-run conservation in full serve cells."""

    @pytest.mark.parametrize("intensity", [0, 6])
    def test_offered_equals_admitted_plus_shed(self, intensity):
        outcome = run_serve(
            ServeConfig(
                tenants=standard_tenants(
                    antagonist_intensity=intensity,
                    victim_requests=240,
                    antagonist_requests=100,
                    cache_pages=256,
                    queue_depth=16,
                ),
                cache_pages=256,
            )
        )
        for stats in outcome.tenants:
            snap = stats.queue.snapshot()
            assert snap["offered"] == stats.spec.requests
            assert snap["offered"] == snap["admitted"] + snap["shed"]
            # The open loop drains completely: nothing in flight at exit.
            assert snap["admitted"] == snap["completed"]
            assert stats.sojourns.count == snap["completed"]
            # Sojourns can never be negative (completion >= arrival).
            assert all(s >= 0 for s in stats.sojourns.samples())


class TestSloMonotonicity:
    """Pooled victim p99 rises with antagonist intensity (sub-saturation)."""

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_p99_monotone_in_intensity(self, seed):
        p99s = []
        for intensity in (0, 1, 2, 3):
            outcome = run_serve(
                ServeConfig(
                    tenants=standard_tenants(
                        antagonist_intensity=intensity,
                        victim_requests=2400,
                        antagonist_requests=1200,
                        cache_pages=512,
                    ),
                    cache_pages=512,
                    seed=seed,
                )
            )
            p99s.append(outcome.victim_sojourns().p99())
        assert all(b > a for a, b in zip(p99s, p99s[1:])), p99s


class TestServeDeterminism:
    """Same params -> same digest, within one process."""

    def test_back_to_back_runs_digest_identically(self):
        from repro.serve.core import run_conformance_cell

        first = run_conformance_cell(batched=True, fastforward=True,
                                     antagonist_intensity=6)
        second = run_conformance_cell(batched=True, fastforward=True,
                                      antagonist_intensity=6)
        assert hash_digest(first) == hash_digest(second)
