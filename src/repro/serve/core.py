"""Open-loop multi-tenant serving over one shared mmio stack.

Each tenant is one :class:`~repro.sim.executor.SimThread` running a FIFO
server over its own mapped dataset: requests arrive on a precomputed
open-loop schedule (:mod:`repro.serve.arrivals`), pass a bounded
admission queue (:mod:`repro.serve.admission`), and are served through
the engine's ``retire`` primitive — including its batched hit runs and
the analytic fast-forward, so serve cells are bit-identical across
unbatched / batched / fast-forward modes exactly like the
microbenchmark cells (the serve conformance tier asserts it).

Determinism argument (DESIGN.md Section 12, in brief):

* arrival stamps are integers fixed before the run — waiting for work
  uses ``CycleClock.wait_until`` (a pure local clock advance charged to
  an idle category) and never touches engine state;
* an admission decision for the arrival at cycle ``a`` is a pure
  function of the completion cycles <= ``a`` — and every such completion
  is registered before that arrival is processed in *every* executor
  mode, because a batched hit-run only serves requests that were already
  pending when the batch started;
* completion cycles are derived from the engine's per-op latency samples
  through one shared arithmetic chain (``_cursor``) in all modes, never
  read off the raw clock mid-batch, so the serve-layer sojourn streams
  and shed counters digest identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.common import units
from repro.mmio.vma import MADV_RANDOM
from repro.serve.admission import AdmissionQueue
from repro.serve.arrivals import BurstPhase, burst_schedule, poisson_schedule
from repro.serve.qos import build_partition
from repro.sim.executor import Executor, RunResult, SimThread
from repro.sim.fastforward import AccessPlan
from repro.sim.rand import counter_draws, derive_seed
from repro.sim.stats import LatencyRecorder
from repro.workloads.microbench import WRITE_DATA

#: Tags naming the independent counter streams of one tenant's request
#: plan (arrivals use ``repro.serve.arrivals.TAG_ARRIVAL`` over the same
#: per-tenant base seed).
_TAG_PAGE, _TAG_OFFSET, _TAG_WRITE = 21, 22, 23

#: Breakdown category charged while a tenant's server waits for the next
#: arrival — an idle wait outside all engine state, so open-loop pacing
#: never perturbs the quiescence certificate.
IDLE_ARRIVAL = "idle.serve.arrival"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of an open-loop serve cell."""

    name: str
    requests: int
    mean_gap_cycles: float
    dataset_pages: int
    queue_depth: int = 128
    write_fraction: float = 0.0
    #: When set, arrivals follow the periodic burst trace instead of a
    #: plain Poisson process.
    burst_phases: Optional[Tuple[BurstPhase, ...]] = None


@dataclass
class ServeConfig:
    """Parameters of one serve cell."""

    tenants: List[TenantSpec]
    engine_kind: str = "aquila"
    #: Cache QoS policy: ``none`` / ``static`` / ``proportional``
    #: (see ``repro.cache.partition``).
    policy: str = "none"
    cache_pages: int = 512
    device_kind: str = "pmem"
    seed: int = 7
    #: Same mode switches as the microbenchmark: batched epoch scheduling
    #: and the engine's analytic fast-forward on top of it.
    batched: bool = True
    fastforward: bool = True


class TenantStats:
    """Serve-layer accounting for one tenant (outside engine state)."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.queue = AdmissionQueue(spec.queue_depth)
        #: Sojourn (arrival -> completion) cycles of completed requests.
        self.sojourns = LatencyRecorder()

    def row(self) -> Dict:
        """One payload row: queue counters + sojourn SLO percentiles."""
        row = {"tenant": self.spec.name}
        row.update(self.queue.snapshot())
        row.update(
            {
                "p50_cycles": self.sojourns.p50(),
                "p99_cycles": self.sojourns.p99(),
                "p999_cycles": self.sojourns.p999(),
                "mean_cycles": self.sojourns.mean(),
            }
        )
        return row

    def digest(self) -> Dict:
        """Digest entry: counters plus the exact sojourn stream."""
        entry = self.queue.snapshot()
        entry["sojourns"] = self.sojourns.samples()
        return entry


@dataclass
class ServeOutcome:
    """Everything one serve run produced."""

    stack: object
    result: RunResult
    tenants: List[TenantStats]
    config: ServeConfig = field(default=None)

    def rows(self) -> List[Dict]:
        """Per-tenant payload rows."""
        return [stats.row() for stats in self.tenants]

    def victim_sojourns(self) -> LatencyRecorder:
        """All non-antagonist tenants' sojourns pooled.

        The headline figure statistic: pooling the victims doubles the
        sample count behind the tail percentiles, which is what keeps
        the pinned p99 expectations stable against single-tenant noise.
        """
        pooled = LatencyRecorder()
        for stats in self.tenants:
            if stats.spec.name != "antagonist":
                pooled.merge(stats.sojourns)
        return pooled


def _request_plan(
    base: int, dataset_pages: int, count: int, write_fraction: float
) -> AccessPlan:
    """One tenant's request plan: uniform random (page, offset, is_write).

    Same counter-stream idiom and the same
    :class:`~repro.sim.fastforward.AccessPlan` as the microbenchmark's
    ``_op_plan``, in every executor mode.  Unbatched serving retires from
    it directly; batched serving re-slices it per admission batch
    (:func:`_batch_plan`).
    """
    pages = counter_draws(base, _TAG_PAGE, count) % dataset_pages
    offsets = counter_draws(base, _TAG_OFFSET, count) % (units.PAGE_SIZE - 8)
    if write_fraction <= 0.0:
        writes = np.zeros(count, dtype=bool)
    elif write_fraction >= 1.0:
        writes = np.ones(count, dtype=bool)
    else:
        threshold = min(int(write_fraction * 2.0 ** 64), (1 << 64) - 1)
        writes = counter_draws(base, _TAG_WRITE, count) < threshold
    return AccessPlan(pages, offsets, writes)


def _batch_plan(batch: List[int], plan: AccessPlan) -> AccessPlan:
    """An :class:`AccessPlan` over the pending requests of one batch."""
    index = np.asarray(batch, dtype=np.intp)
    return AccessPlan(plan.np_pages[index], plan.np_offsets[index], plan.np_writes[index])


def serve_workload(
    thread: SimThread,
    mapping,
    arrivals: List[int],
    plan: AccessPlan,
    stats: TenantStats,
) -> Iterator[None]:
    """One tenant's FIFO server loop over ``mapping``.

    Each executor step performs exactly one of: an idle wait for the next
    arrival, or one ``retire`` call — one op unbatched, or in batched
    mode a hit run over the currently pending admitted requests.
    Admission runs at the top of every step and after every wait, so the
    decision for each arrival sees exactly the completions at or before
    it regardless of mode (module docstring).
    """
    engine = mapping.engine
    clock = thread.clock
    queue = stats.queue
    sojourns = stats.sojourns
    total = len(arrivals)
    pending: deque = deque()
    next_req = 0
    # Completion-cycle chain shared verbatim by all executor modes:
    # reset to the (exact, integer) clock after every idle wait, advanced
    # by the engine's per-op latency samples while the server is busy.
    cursor = clock.now

    def admit_upto(now: float) -> int:
        """Process all arrivals at or before ``now``; returns new index."""
        index = next_req
        while index < total and arrivals[index] <= now:
            if queue.on_arrival(arrivals[index]):
                pending.append(index)
            index += 1
        return index

    while True:
        next_req = admit_upto(clock.now)
        if not pending:
            if next_req >= total:
                return
            clock.wait_until(float(arrivals[next_req]), IDLE_ARRIVAL)
            cursor = clock.now
            yield
            continue
        if thread.run_horizon is None:
            step_plan, index = plan, pending[0]
        else:
            # A hit run consumes consecutive plan entries, so batched
            # steps retire over a plan of just the pending requests.
            step_plan = _batch_plan(list(pending), plan)
            index = 0
        consumed = engine.retire(thread, mapping, step_plan, index, WRITE_DATA)
        for latency in thread.latencies.last(consumed):
            cursor += latency
            request = pending.popleft()
            queue.on_completion(cursor)
            sojourns.record(cursor - arrivals[request])
        yield


def run_serve(config: ServeConfig) -> ServeOutcome:
    """Run one serve cell: N tenants over one shared stack."""
    from repro.bench import setups

    stack = setups.make_stack(config.engine_kind, config.device_kind, config.cache_pages)
    engine = stack.engine
    engine.fastforward = bool(config.batched and config.fastforward)
    files = [
        stack.allocator.create(
            f"serve-{spec.name}", spec.dataset_pages * units.PAGE_SIZE
        )
        for spec in config.tenants
    ]
    partition = build_partition(
        config.policy, config.tenants, files, config.cache_pages
    )
    if partition is not None:
        engine.cache.partition = partition
    executor = Executor(batched=config.batched, quiescent=engine.run_ahead_unbounded_ok)
    threads: List[SimThread] = []
    tenants: List[TenantStats] = []
    for index, spec in enumerate(config.tenants):
        thread = engine.machine.thread(
            index % engine.machine.topology.num_hw_threads, f"serve-{spec.name}"
        )
        mapping = engine.mmap(thread, files[index])
        mapping.madvise(thread, MADV_RANDOM)
        base = derive_seed(config.seed, f"serve-{spec.name}")
        if spec.burst_phases:
            arrivals = burst_schedule(
                base, spec.requests, spec.mean_gap_cycles, spec.burst_phases
            )
        else:
            arrivals = poisson_schedule(base, spec.requests, spec.mean_gap_cycles)
        plan = _request_plan(
            base, spec.dataset_pages, spec.requests, spec.write_fraction
        )
        stats = TenantStats(spec)
        threads.append(thread)
        tenants.append(stats)
        executor.add(thread, serve_workload(thread, mapping, arrivals, plan, stats))
    engine.machine.apply_smt_penalty(threads)
    result = executor.run()
    return ServeOutcome(stack=stack, result=result, tenants=tenants, config=config)


def serve_state_digest(outcome: ServeOutcome) -> Dict:
    """Full serve-cell digest: engine end state + serve accounting.

    The standard :func:`repro.sim.conformance.mmio_state_digest` (thread
    clocks, latency streams, TLBs, engine counters, device bytes, page
    table, cache) extended with a ``serve`` section per tenant — queue
    counters and the exact sojourn stream — so mode and worker-count
    conformance covers the serving layer too.
    """
    from repro.sim.conformance import mmio_state_digest

    digest = mmio_state_digest(outcome.stack, outcome.result)
    digest["serve"] = {
        stats.spec.name: stats.digest() for stats in outcome.tenants
    }
    return digest


#: Antagonist mean arrival gap at intensity 1 (cycles).  Intensities 1-3
#: stay under the antagonist's fault service rate (so victim p99 degrades
#: monotonically with intensity — the serve property tier's claim); the
#: figure cells run intensity 6, deep into saturation, for the headline
#: tail-latency contrast.
ANTAGONIST_BASE_GAP_CYCLES = 28_800.0


def standard_tenants(
    antagonist_intensity: float = 0,
    victim_requests: int = 2400,
    antagonist_requests: int = 1200,
    cache_pages: int = 512,
    victim_dataset_pages: int = 96,
    queue_depth: int = 128,
    write_fraction: float = 0.0,
) -> List[TenantSpec]:
    """The canonical serve tenant mix.

    Two "victim" tenants with small in-memory datasets and Poisson
    arrivals paced near the fault service time (so their tails reflect
    steady-state cache behavior, not cold-start queueing), plus — when
    ``antagonist_intensity > 0`` — one antagonist tenant whose bursty
    trace sweeps a dataset twice the cache size, so it faults on nearly
    every request and keeps batch eviction running.  Intensity scales
    the antagonist's arrival rate linearly from well under its fault
    service rate (intensity 1) toward saturation, which is what makes
    victim p99 degrade monotonically: more antagonist admissions mean
    more evictions of the victims' (LRU-cold) resident pages, hence
    more victim refaults in the tail.
    """
    tenants = [
        TenantSpec(
            "alpha", victim_requests, 6000.0, victim_dataset_pages,
            queue_depth, write_fraction,
        ),
        TenantSpec(
            "beta", victim_requests, 7500.0, victim_dataset_pages,
            queue_depth, write_fraction,
        ),
    ]
    if antagonist_intensity > 0:
        tenants.append(
            TenantSpec(
                "antagonist",
                antagonist_requests,
                ANTAGONIST_BASE_GAP_CYCLES / antagonist_intensity,
                cache_pages * 2,
                queue_depth,
                0.0,
                (BurstPhase(30_000, 4.0), BurstPhase(90_000, 0.5)),
            )
        )
    return tenants


def engagement_tenants() -> List[TenantSpec]:
    """A tenant mix whose open-loop load provably reaches the analytic
    fast-forward path.

    The first tenant's burst trace idles near the Poisson base rate long
    enough to warm its (in-memory) dataset, then bursts 80x for 3000
    cycles: arrivals outpace the ~6-cycle hit service, the backlog grows
    past :data:`repro.sim.fastforward.MIN_ANALYTIC_RUN`, and the next
    quiescent hit run drains it through the closed form.  The serve
    engagement test asserts ``ff_runs > 0`` on exactly this mix so the
    analytic path can never silently stop covering serve cells.
    """
    phases = (BurstPhase(250_000, 0.6), BurstPhase(3_000, 80.0))
    return [
        TenantSpec(
            "alpha", 3000, 300.0, 48, queue_depth=256, burst_phases=phases
        ),
        TenantSpec("beta", 800, 520.0, 48, queue_depth=128),
    ]


def run_conformance_cell(
    batched: bool,
    fastforward: bool = False,
    engine_kind: str = "aquila",
    policy: str = "none",
    antagonist_intensity: float = 0,
    victim_requests: int = 240,
    antagonist_requests: int = 100,
    cache_pages: int = 256,
    queue_depth: int = 96,
    write_fraction: float = 0.0,
    seed: int = 7,
    mix: str = "standard",
) -> Dict:
    """Run one serve cell and return its full state digest.

    ``run_cell``-style entry point for
    :func:`repro.sim.conformance.assert_fastforward_agrees`.  ``mix``
    selects :func:`standard_tenants` (parameterized by the remaining
    arguments) or the fixed :func:`engagement_tenants`.
    """
    if mix == "engagement":
        tenants = engagement_tenants()
    elif mix == "standard":
        tenants = standard_tenants(
            antagonist_intensity=antagonist_intensity,
            victim_requests=victim_requests,
            antagonist_requests=antagonist_requests,
            cache_pages=cache_pages,
            queue_depth=queue_depth,
            write_fraction=write_fraction,
        )
    else:
        raise ValueError(f"unknown tenant mix: {mix!r}")
    config = ServeConfig(
        tenants=tenants,
        engine_kind=engine_kind,
        policy=policy,
        cache_pages=cache_pages,
        seed=seed,
        batched=batched,
        fastforward=fastforward,
    )
    return serve_state_digest(run_serve(config))
