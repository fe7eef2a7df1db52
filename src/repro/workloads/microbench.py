"""The paper's custom multithreaded microbenchmark (Section 5).

"It uses a configurable number of threads that issue load/store
instructions at randomly generated offsets within the memory mapped
region.  We ensure that each load/store results in a page fault."

Two access regimes cover the paper's two dataset cases:

* **touch-once** (dataset fits in memory, Figures 8(a), 10(a)): each
  thread touches a random permutation of its share of the pages, so every
  access is a compulsory (cold) fault and nothing is ever evicted;
* **uniform random** (dataset larger than memory, Figures 8(b), 10(b)):
  accesses are uniform over a region much larger than the cache, so
  nearly every access misses and evictions run in the common path.

Mappings use ``MADV_RANDOM``, matching the guaranteed-fault setup (no
readahead pollution in either engine).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.common import units
from repro.mmio.engine import Mapping
from repro.mmio.vma import MADV_RANDOM
from repro.sim.executor import Executor, RunResult, SimThread
from repro.sim.fastforward import AccessPlan
from repro.sim.rand import counter_draws, derive_seed

#: All microbenchmark stores write this constant payload.  This is part of
#: the batching invariant: concurrent hit-stores to the same page commute
#: only because they store identical bytes (see ``repro.sim.executor``).
WRITE_DATA = b"\xA5" * 8


@dataclass
class MicrobenchConfig:
    """Parameters of one microbenchmark run."""

    num_threads: int = 1
    accesses_per_thread: int = 1000
    write_fraction: float = 0.0
    touch_once: bool = True
    shared_file: bool = True
    seed: int = 7
    #: Run the executor in epoch-batched mode (cycle-identical to the
    #: unbatched scheduler — proven by tests/conformance — but much faster
    #: on cache-hit-heavy cells).
    batched: bool = True
    #: Allow the engine's analytic fast-forward (closed-form retirement of
    #: quiescent all-hit windows; see ``repro.sim.fastforward``).  Only
    #: effective together with ``batched`` — unbatched mode always stays
    #: the pristine per-op reference the conformance tier compares
    #: against.  The flag switches the engine only: every mode runs the
    #: same array-backed :class:`~repro.sim.fastforward.AccessPlan`.
    fastforward: bool = True


#: Tags naming the independent counter streams of one thread's plan.
_TAG_PAGE, _TAG_OFFSET, _TAG_WRITE = 1, 2, 3


def _op_plan(
    thread: SimThread,
    mapping: Mapping,
    accesses: int,
    write_fraction: float,
    touch_once: bool,
    seed: int,
    partition_index: int,
    partition_count: int,
) -> AccessPlan:
    """Precompute one thread's access plan ``(pages, in_page_offsets,
    is_write_flags)``.

    Draws come from per-thread counter streams (``repro.sim.rand.mix64``),
    generated in bulk as uint64 arrays.  The modulo page/offset picks
    carry a uniformity skew below 2^-50 for page-scale spans, invisible
    at simulation scale; the plan is a pure function of
    ``(seed, thread.tid)``.

    When ``touch_once`` asks for more accesses than the thread's partition
    holds, the plan touches every owned page once and then re-accesses
    random owned pages — pure cache hits whenever the dataset fits in
    memory, which is what the batched fast path accelerates.

    The plan is built the same way in every executor mode: an
    :class:`~repro.sim.fastforward.AccessPlan` over the int64 page,
    int64 offset and bool write arrays, which the hit loop indexes
    through memoryviews and the analytic fast-forward profiles directly.
    """
    base = derive_seed(seed, f"mb-{thread.tid}")
    total_pages = mapping.size_bytes >> units.PAGE_SHIFT
    if touch_once:
        # Each thread owns an interleaved share of the pages, permuted.
        owned = list(range(partition_index, total_pages, partition_count))
        random.Random(base).shuffle(owned)
        pages = np.asarray(owned[:accesses], dtype=np.int64)
        if accesses > len(owned) and owned:
            draws = counter_draws(base, _TAG_PAGE, accesses - len(owned))
            pages = np.concatenate([pages, pages[(draws % len(owned)).astype(np.int64)]])
    else:
        pages = counter_draws(base, _TAG_PAGE, accesses) % total_pages
    offsets = counter_draws(base, _TAG_OFFSET, accesses) % (units.PAGE_SIZE - 8)
    if write_fraction <= 0.0:
        writes = np.zeros(accesses, dtype=bool)
    elif write_fraction >= 1.0:
        writes = np.ones(accesses, dtype=bool)
    else:
        # draw/2^64 < write_fraction, computed in integers (exact).
        threshold = min(int(write_fraction * 2.0 ** 64), (1 << 64) - 1)
        writes = counter_draws(base, _TAG_WRITE, accesses) < threshold
    return AccessPlan(pages, offsets, writes)


def access_workload(
    thread: SimThread,
    mapping: Mapping,
    accesses: int,
    write_fraction: float,
    touch_once: bool,
    seed: int,
    partition_index: int = 0,
    partition_count: int = 1,
) -> Iterator[None]:
    """One thread's access stream over ``mapping``.

    Each executor step hands the engine's ``retire`` the plan and the
    next index: in unbatched mode (``thread.run_horizon is None``) it
    retires one op through the per-op load/store protocol; in batched
    mode a run of consecutive pure cache hits retires in one step, and
    the first op needing the fault path (or crossing the horizon) retires
    alone — charge-for-charge identical either way.
    """
    engine = mapping.engine
    plan = _op_plan(
        thread,
        mapping,
        accesses,
        write_fraction,
        touch_once,
        seed,
        partition_index,
        partition_count,
    )
    index = 0
    total = len(plan[0])
    while index < total:
        index += engine.retire(thread, mapping, plan, index, WRITE_DATA)
        yield


def run_microbench(
    engine,
    files,
    config: MicrobenchConfig,
) -> RunResult:
    """Run the microbenchmark over an engine.

    ``files`` is either one backing file (shared) or a list with one file
    per thread (private).  Returns the executor result; per-op latencies
    land in each thread's recorder.
    """
    if config.shared_file:
        file_list = [files if not isinstance(files, list) else files[0]] * config.num_threads
    else:
        file_list = list(files)
        if len(file_list) != config.num_threads:
            raise ValueError("need one file per thread for the private-file mode")

    engine.fastforward = bool(config.batched and config.fastforward)
    executor = Executor(batched=config.batched, quiescent=engine.run_ahead_unbounded_ok)
    threads = []
    shared_mapping: Optional[Mapping] = None
    for index in range(config.num_threads):
        thread = SimThread(core=index % engine.machine.topology.num_hw_threads)
        threads.append(thread)
        if config.shared_file:
            if shared_mapping is None:
                shared_mapping = engine.mmap(thread, file_list[0])
                shared_mapping.madvise(thread, MADV_RANDOM)
            mapping = shared_mapping
            part_index, part_count = index, config.num_threads
        else:
            mapping = engine.mmap(thread, file_list[index])
            mapping.madvise(thread, MADV_RANDOM)
            part_index, part_count = 0, 1
        executor.add(
            thread,
            access_workload(
                thread,
                mapping,
                config.accesses_per_thread,
                config.write_fraction,
                config.touch_once,
                config.seed,
                partition_index=part_index,
                partition_count=part_count,
            ),
        )
    engine.machine.apply_smt_penalty(threads)
    return executor.run()
