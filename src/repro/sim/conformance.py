"""Batched-vs-unbatched conformance harness (the batching oracle).

The epoch-batched scheduler (``repro.sim.executor``) is only admissible
because it changes *nothing observable*: every clock, every cache page,
every counter must come out bit-identical to the unbatched min-heap
schedule.  This module runs one microbenchmark cell (or explicit-I/O
read stream) under both modes and digests the complete end state so
tests can assert equality — the same replay-and-compare idea as the
PR 2 cross-engine differential oracle (``repro.fault.differential``),
but across *scheduler modes* instead of engines.

Digested state:

* per-thread final clocks, op counts, latency sample streams, and
  per-category cycle breakdowns;
* the hardware page table (vpn -> frame/writable/dirty/accessed);
* per-core TLB contents and hit/miss counters;
* cache contents down to page bytes (frame data checksums) and dirty bits;
* durable device bytes;
* every numeric engine/cache counter, *except* the mode-reporting
  counters (:data:`MODE_COUNTERS`) that exist to describe batching
  itself and therefore legitimately differ between modes;
* the injected fault schedule, when a fault plan is active.

Reproducibility note: back-to-back in-process runs must reset the global
``SimThread`` and ``BackingFile`` id counters — file ids seed the
hash-striped atomic timelines, so two otherwise-identical runs would
contend on different stripes (see ``BackingFile.reset_ids``).
:func:`run_cell` does this automatically.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common import units
from repro.fault.plan import FaultPlan, FaultSpec, clear_plan, install_plan
from repro.mmio.files import BackingFile
from repro.sim.executor import SimThread

#: Counters that report on the batching/fast-forward machinery itself
#: (how many runs, how many ops retired inside runs, how many analytic
#: windows engaged and how many accesses they retired) plus the
#: ``fastforward`` mode switch.  They are mode *metadata*, not simulation
#: outcomes, and are the only state allowed to differ between modes.
MODE_COUNTERS = frozenset(
    {
        "hit_runs",
        "batched_hits",
        "ff_runs",
        "ff_hits",
        "fastforward",
    }
)

#: Engine kinds driven through the shared-mapping microbenchmark.
MMIO_ENGINE_KINDS = ("aquila", "linux", "kmmap")

#: All conformance-covered engine kinds (explicit I/O uses the block-read
#: stream in :func:`run_explicit_cell` instead of a memory mapping).
ENGINE_KINDS = MMIO_ENGINE_KINDS + ("explicit",)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def canonical_bytes(obj) -> bytes:
    """A canonical byte serialization of a digest structure.

    Deterministic across processes and platforms: dict entries are sorted
    by their serialized keys, tuples and lists serialize identically,
    floats use ``repr`` (shortest round-tripping form, exact for the
    integer-valued cycle counts the simulator produces), and bools/None
    get JSON spellings.  Two digest structures serialize to the same
    bytes iff they compare equal under tuple/list unification — which is
    what lets a sweep worker in one process and a serial run in another
    agree on a cell's state hash.

    numpy scalars raise ``TypeError``: their ``repr`` depends on the
    numpy version and ``np.int64`` would hash like a string, so they
    must never reach digested state (see ``AccessPlan``).
    """
    return _canon(obj).encode("utf-8")


#: Streams at least this long are checked for low cardinality first.
_MEMO_MIN_LEN = 64

#: About this many evenly spaced samples decide whether a stream's float
#: reprs are memoized: at most half of them distinct.
_MEMO_SAMPLES = 256

#: JSON spellings of strings seen so far (keys and category names).
_SPELLINGS: Dict[str, str] = {}
_MAX_SPELLINGS = 1 << 12


def _canon(obj) -> str:
    # Exact-type dispatch; subclasses and everything else take the
    # ``isinstance`` chain in :func:`_canon_other`.
    return _CANON_BY_TYPE.get(type(obj), _canon_other)(obj)


def _canon_dict(obj) -> str:
    items = sorted(zip(map(_canon, obj), map(_canon, obj.values())))
    return "{" + ",".join([k + ":" + v for k, v in items]) + "}"


def _canon_seq(obj) -> str:
    kinds = set(map(type, obj))
    if kinds == {float}:
        return "[" + _float_stream(obj) + "]"
    if kinds == {int}:
        return "[" + ",".join(map(int.__repr__, obj)) + "]"
    return "[" + ",".join(map(_canon, obj)) + "]"


def _float_stream(values) -> str:
    """``",".join(map(repr, values))``, memoized for low-cardinality streams.

    Latency streams repeat a handful of values, and a dict lookup is
    much cheaper than float printing.  The memo is built only when a
    spaced sample says the stream is low-cardinality, so a mostly
    distinct stream never builds a full distinct set.  Streams holding a
    zero are not memoized: ``0.0 == -0.0`` would share one spelling.
    """
    if len(values) >= _MEMO_MIN_LEN:
        sample = values[:: len(values) // _MEMO_SAMPLES or 1]
        if 2 * len(set(sample)) <= len(sample):
            distinct = set(values)
            if 0.0 not in distinct:
                spelled = dict(zip(distinct, map(float.__repr__, distinct)))
                return ",".join(map(spelled.__getitem__, values))
    return ",".join(map(float.__repr__, values))


def _canon_str(obj: str) -> str:
    spelled = _SPELLINGS.get(obj)
    if spelled is None:
        if len(_SPELLINGS) >= _MAX_SPELLINGS:
            _SPELLINGS.clear()
        spelled = _SPELLINGS[obj] = json.dumps(obj)
    return spelled


def _canon_other(obj) -> str:
    if isinstance(obj, np.generic):
        raise TypeError(
            f"numpy scalar {obj!r} in digested state; convert it to a Python value"
        )
    if isinstance(obj, dict):
        return _canon_dict(obj)
    if isinstance(obj, (list, tuple)):
        return _canon_seq(obj)
    if isinstance(obj, (int, float)):  # bool cannot be subclassed
        return repr(obj)
    return json.dumps(str(obj))


_CANON_BY_TYPE = {
    float: float.__repr__,
    int: int.__repr__,
    str: _canon_str,
    dict: _canon_dict,
    list: _canon_seq,
    tuple: _canon_seq,
    bool: lambda obj: "true" if obj else "false",
    type(None): lambda obj: "null",
}


def hash_digest(digest) -> str:
    """The sha256 hex of a digest structure's canonical serialization.

    This is the per-cell state hash the sweep manifest records: equal
    hashes mean bit-identical end state under :func:`canonical_bytes`
    canonicalization, across processes, worker counts, and runs.
    """
    return hashlib.sha256(canonical_bytes(digest)).hexdigest()


def _numeric_state(obj, exclude: frozenset = MODE_COUNTERS) -> Dict[str, float]:
    """Every public numeric attribute of ``obj`` (counters and sizes)."""
    state = {}
    for key, value in vars(obj).items():
        if key.startswith("_") or key in exclude:
            continue
        if isinstance(value, bool) or isinstance(value, (int, float)):
            state[key] = value
    return state


def _thread_digest(thread: SimThread) -> Dict:
    return {
        "clock": thread.clock.now,
        "ops": thread.ops_completed,
        "latencies": tuple(thread.latencies.samples()),
        "breakdown": dict(thread.clock.breakdown._cycles),
    }


def _page_table_digest(page_table) -> Dict[int, Tuple]:
    return {
        vpn: (pte.frame, pte.writable, pte.dirty, pte.accessed)
        for vpn, pte in page_table._entries.items()
    }


def _tlb_digest(machine) -> List[Dict]:
    return [
        {
            "resident": tuple(sorted(tlb.resident_vpns())),
            "hits": tlb.hits,
            "misses": tlb.misses,
        }
        for tlb in machine.tlbs
    ]


def _file_id_of(key_head) -> int:
    return key_head if isinstance(key_head, int) else key_head.file_id


def _mmio_cache_digest(cache, pool) -> List[Tuple]:
    """Sorted (file_id, page, frame, dirty, data-checksum) tuples."""
    if hasattr(cache, "table"):          # Aquila / kmmap lock-free table
        items = cache.table._map.items()
    else:                                # Linux kernel page cache
        items = cache._pages.items()
    rows = []
    for key, page in items:
        rows.append(
            (
                _file_id_of(key[0]),
                key[1],
                page.frame,
                bool(page.dirty),
                _sha(pool.read(page.frame)),
            )
        )
    return sorted(rows)


def _device_digest(device) -> List[Tuple[int, str]]:
    return sorted(
        (index, _sha(data)) for index, data in device.store._pages.items()
    )


def _common_digest(stack, result, plan: Optional[FaultPlan]) -> Dict:
    digest = {
        "threads": [_thread_digest(t) for t in result.threads],
        "makespan": result.makespan_cycles,
        "tlbs": _tlb_digest(stack.machine),
        "engine": _numeric_state(stack.engine),
        "device": _device_digest(stack.device),
        "fault_schedule": plan.schedule() if plan is not None else None,
    }
    return digest


def mmio_state_digest(stack, result, plan: Optional[FaultPlan] = None) -> Dict:
    """Full end-state digest of an mmio-engine run (the PR 3 oracle).

    The same structure :func:`run_cell` digests — thread clocks and
    latency streams, TLBs, engine counters, device bytes, page table and
    cache contents — but over a caller-supplied ``stack`` and executor
    ``result``, so sweep cells built by the figure runners can be
    digested without re-running the workload.  Pass the digest to
    :func:`hash_digest` for the manifest's state hash.
    """
    digest = _common_digest(stack, result, plan)
    digest["page_table"] = _page_table_digest(stack.engine.page_table)
    digest["cache"] = _mmio_cache_digest(stack.engine.cache, stack.engine._pool())
    return digest


def stack_state_digest(stack, threads) -> Dict:
    """Full end-state digest of an mmio stack from its threads alone.

    The cluster layer (:mod:`repro.cluster`) digests shard stacks between
    epochs, where no single :class:`~repro.sim.executor.RunResult` spans
    the run — each epoch is its own executor invocation over persistent
    threads.  This wraps the threads in a ``RunResult`` (makespan is the
    max thread clock, exactly the per-run definition) and reuses
    :func:`mmio_state_digest`, so a shard digest is structurally
    identical to a single-process cell digest.
    """
    from repro.sim.executor import RunResult

    return mmio_state_digest(stack, RunResult(list(threads)))


def run_cell(
    engine_kind: str,
    batched: bool,
    num_threads: int = 4,
    accesses_per_thread: int = 400,
    cache_pages: int = 256,
    dataset_pages: int = 192,
    write_fraction: float = 0.25,
    touch_once: bool = True,
    shared_file: bool = True,
    seed: int = 7,
    device_kind: str = "pmem",
    fault_spec: Optional[FaultSpec] = None,
    fault_seed: int = 0,
    fastforward: bool = False,
) -> Dict:
    """Run one mmio microbenchmark cell and return its full state digest.

    ``fastforward`` additionally enables the engine's analytic
    fast-forward on top of batching (it has no effect unbatched), giving
    the third mode :func:`assert_fastforward_agrees` compares.
    """
    from repro.bench.setups import (
        make_aquila_stack,
        make_kmmap_stack,
        make_linux_stack,
    )
    from repro.workloads.microbench import MicrobenchConfig, run_microbench

    makers = {
        "aquila": make_aquila_stack,
        "linux": make_linux_stack,
        "kmmap": make_kmmap_stack,
    }
    if engine_kind not in makers:
        raise ValueError(f"unknown mmio engine kind {engine_kind!r}")

    SimThread.reset_ids()
    BackingFile.reset_ids()
    plan = FaultPlan(fault_seed, fault_spec) if fault_spec is not None else None
    install_plan(plan)
    try:
        stack = makers[engine_kind](device_kind, cache_pages)
        if shared_file:
            files = stack.allocator.create(
                "conf-shared", dataset_pages * units.PAGE_SIZE
            )
        else:
            per_file = max(16, dataset_pages // num_threads)
            files = [
                stack.allocator.create(f"conf-{i}", per_file * units.PAGE_SIZE)
                for i in range(num_threads)
            ]
        config = MicrobenchConfig(
            num_threads=num_threads,
            accesses_per_thread=accesses_per_thread,
            write_fraction=write_fraction,
            touch_once=touch_once,
            shared_file=shared_file,
            seed=seed,
            batched=batched,
            fastforward=fastforward,
        )
        result = run_microbench(stack.engine, files, config)
        digest = _common_digest(stack, result, plan)
        digest["page_table"] = _page_table_digest(stack.engine.page_table)
        digest["cache"] = _mmio_cache_digest(stack.engine.cache, stack.engine._pool())
        return digest
    finally:
        clear_plan()


def run_explicit_cell(
    batched: bool,
    num_threads: int = 1,
    reads_per_thread: int = 200,
    cache_pages: int = 64,
    file_pages: int = 96,
    seed: int = 7,
    device_kind: str = "pmem",
    fault_spec: Optional[FaultSpec] = None,
    fault_seed: int = 0,
) -> Dict:
    """Run a block-read stream through the explicit-I/O engine, digest it.

    Every read is one ``pread`` per executor step; batched mode only
    changes the schedule (epoch horizons instead of the min-heap order),
    which with one thread or several must leave the digest unchanged.
    """
    import random

    from repro.bench.setups import make_device
    from repro.mmio.files import ExtentAllocator
    from repro.hw.machine import Machine
    from repro.mmio.explicit import BLOCK_SIZE, ExplicitIOEngine
    from repro.sim.executor import Executor
    from repro.sim.rand import derive_seed

    SimThread.reset_ids()
    BackingFile.reset_ids()
    plan = FaultPlan(fault_seed, fault_spec) if fault_spec is not None else None
    install_plan(plan)
    try:
        machine = Machine()
        device = make_device(device_kind)
        engine = ExplicitIOEngine(machine, cache_pages)
        allocator = ExtentAllocator(device)
        file = allocator.create("conf-explicit", file_pages * units.PAGE_SIZE)

        def workload(thread: SimThread):
            rng = random.Random(derive_seed(seed, f"conf-ex-{thread.tid}"))
            blocks = [rng.randrange(file_pages) for _ in range(reads_per_thread)]
            for block in blocks:
                start = thread.clock.now
                engine.pread(thread, file, block * BLOCK_SIZE, 8)
                thread.record_op(start)
                yield

        executor = Executor(batched=batched)
        threads = []
        for i in range(num_threads):
            thread = SimThread(core=i % machine.topology.num_hw_threads)
            threads.append(thread)
            executor.add(thread, workload(thread))
        result = executor.run()

        digest = _common_digest(
            type("S", (), {"machine": machine, "engine": engine, "device": device}),
            result,
            plan,
        )
        digest["cache"] = sorted(
            (key[0], key[1], _sha(data))
            for shard in engine.cache._shards.values()
            for key, data in shard.items()
        )
        digest["cache_counters"] = _numeric_state(engine.cache)
        return digest
    finally:
        clear_plan()


def diff_digests(unbatched: Dict, batched: Dict) -> List[str]:
    """Human-readable list of every key where the two digests disagree.

    Strict: values must compare equal *and* serialize to the same
    :func:`canonical_bytes`, so ``1`` vs ``1.0`` or ``0.0`` vs ``-0.0`` —
    equal under ``==`` but different state hashes — count as
    disagreements.
    """
    problems = []
    for key in sorted(set(unbatched) | set(batched)):
        a, b = unbatched.get(key), batched.get(key)
        if a != b or _canon(a) != _canon(b):
            problems.append(f"{key}: unbatched={a!r} != batched={b!r}")
    return problems


def assert_modes_agree(run, **kwargs) -> Dict:
    """Run ``run`` (a ``run_cell``-style callable) in both modes and
    assert bit-identical digests (strictly, see :func:`diff_digests`);
    returns the (shared) digest."""
    unbatched = run(batched=False, **kwargs)
    batched = run(batched=True, **kwargs)
    problems = diff_digests(unbatched, batched)
    assert not problems, "batched execution diverged:\n  " + "\n  ".join(
        problems[:10]
    )
    return unbatched


def assert_fastforward_agrees(run, **kwargs) -> Dict:
    """Run ``run`` in all three modes — unbatched, batched, batched with
    analytic fast-forward — and assert the full state digests are
    bit-identical (strictly, see :func:`diff_digests`); returns the
    (shared) digest.  This is the fast-forward tier's oracle: the
    closed-form windows must be invisible against *both* reference
    schedules."""
    unbatched = run(batched=False, **kwargs)
    batched = run(batched=True, **kwargs)
    fastforward = run(batched=True, fastforward=True, **kwargs)
    problems = diff_digests(unbatched, batched)
    assert not problems, "batched execution diverged:\n  " + "\n  ".join(
        problems[:10]
    )
    problems = diff_digests(batched, fastforward)
    assert not problems, "fast-forward execution diverged:\n  " + "\n  ".join(
        problems[:10]
    )
    return unbatched
