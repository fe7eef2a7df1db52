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
from typing import Iterator, Optional, Tuple

try:
    import numpy as _np
except ImportError:          # plans fall back to pure-Python, same values
    _np = None

from repro.common import units
from repro.mmio.engine import Mapping
from repro.mmio.vma import MADV_RANDOM
from repro.sim.executor import RunResult, SimThread, make_epoch_executor
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
    #: quiescent all-hit windows; see ``repro.sim.fastforward``).  Only effective together with
    #: ``batched`` — unbatched mode always stays the pristine per-op
    #: reference the conformance tier compares against.
    fastforward: bool = True


#: Tags naming the independent counter streams of one thread's plan.
_TAG_PAGE, _TAG_OFFSET, _TAG_WRITE = 1, 2, 3


def _mod(draws, span: int):
    """``draws % span`` as a list of ints (numpy array or list input)."""
    if _np is not None and not isinstance(draws, list):
        return (draws % span).tolist()
    return [d % span for d in draws]


def _op_plan(
    thread: SimThread,
    mapping: Mapping,
    accesses: int,
    write_fraction: float,
    touch_once: bool,
    seed: int,
    partition_index: int,
    partition_count: int,
    lazy: bool = False,
) -> AccessPlan:
    """Precompute one thread's access plan as three parallel lists:
    ``(pages, in_page_offsets, is_write_flags)``.

    Draws come from per-thread counter streams (``repro.sim.rand.mix64``),
    generated in bulk — vectorized when numpy is present, pure Python
    otherwise, bit-identical values either way.  The modulo page/offset
    picks carry a uniformity skew below 2^-50 for page-scale spans,
    invisible at simulation scale; the plan is a pure function of
    ``(seed, thread.tid)``.

    When ``touch_once`` asks for more accesses than the thread's partition
    holds, the plan touches every owned page once and then re-accesses
    random owned pages — pure cache hits whenever the dataset fits in
    memory, which is what the batched fast path accelerates.

    The returned :class:`~repro.sim.fastforward.AccessPlan` unpacks as
    the historical 3-tuple; when numpy is present it also carries int64
    page / bool write array views of the same values so the engine's
    analytic fast-forward can profile windows without re-materializing.
    """
    base = derive_seed(seed, f"mb-{thread.tid}")
    total_pages = mapping.size_bytes >> units.PAGE_SHIFT
    np_pages = np_writes = None
    # Lazy mode (fast-forward only): keep the draws as arrays and hand
    # out memoryviews of them instead of materializing Python lists —
    # the analytic path consumes the arrays directly, and the slow path
    # touches only a sliver of the plan.  A memoryview indexes to Python
    # ints and bools, never numpy scalars (which must not leak into
    # clocks, dict keys or digested state).  Values are identical either
    # way, so the fast-forward digest conformance covers this too.
    lazy = lazy and _np is not None
    if touch_once:
        # Each thread owns an interleaved share of the pages, permuted.
        pages = list(range(partition_index, total_pages, partition_count))
        random.Random(base).shuffle(pages)
        if accesses <= len(pages) or not pages:
            sequence = pages[:accesses]
        else:
            draws = counter_draws(base, _TAG_PAGE, accesses - len(pages))
            if _np is not None and not isinstance(draws, list):
                # Array-first: one conversion of the final sequence
                # instead of round-tripping picks through Python lists.
                owned = _np.asarray(pages, dtype=_np.int64)
                np_pages = _np.concatenate(
                    [owned, owned[(draws % len(pages)).astype(_np.int64)]]
                )
                sequence = memoryview(np_pages) if lazy else np_pages.tolist()
            else:
                sequence = pages + [pages[d % len(pages)] for d in draws]
    else:
        draws = counter_draws(base, _TAG_PAGE, accesses)
        if _np is not None and not isinstance(draws, list):
            np_pages = (draws % total_pages).astype(_np.int64)
            sequence = memoryview(np_pages) if lazy else np_pages.tolist()
        else:
            sequence = [d % total_pages for d in draws]
    offset_draws = counter_draws(base, _TAG_OFFSET, accesses)
    if lazy and not isinstance(offset_draws, list):
        offsets = memoryview(offset_draws % (units.PAGE_SIZE - 8))
    else:
        offsets = _mod(offset_draws, units.PAGE_SIZE - 8)
    if write_fraction <= 0.0:
        if _np is not None:
            np_writes = _np.zeros(accesses, dtype=bool)
        writes = memoryview(np_writes) if lazy else [False] * accesses
    elif write_fraction >= 1.0:
        if _np is not None:
            np_writes = _np.ones(accesses, dtype=bool)
        writes = memoryview(np_writes) if lazy else [True] * accesses
    else:
        # draw/2^64 < write_fraction, computed in integers (exact).
        threshold = min(int(write_fraction * 2.0 ** 64), (1 << 64) - 1)
        draws = counter_draws(base, _TAG_WRITE, accesses)
        if _np is not None and not isinstance(draws, list):
            np_writes = draws < threshold
            writes = memoryview(np_writes) if lazy else np_writes.tolist()
        else:
            writes = [d < threshold for d in draws]
    if _np is not None and np_pages is None:
        np_pages = _np.asarray(sequence, dtype=_np.int64)
    return AccessPlan.build(sequence, offsets, writes, np_pages, np_writes)


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
        lazy=engine.fastforward,
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
    executor = make_epoch_executor(config.batched, engine.run_ahead_unbounded_ok)
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
