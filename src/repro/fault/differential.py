"""Cross-engine differential oracle.

All four mmio engines (Aquila, Linux mmap, kmmap, explicit I/O) expose
the same functional contract: a read observes the most recent write to
the same range, and after a durability call the file's device bytes
equal the written contents.  Their *costs* differ wildly — that is the
paper's point — but their *results* must not.

This module replays one seed-generated random workload (writes, reads,
syncs) through an independent stack per engine and asserts:

* every read returns byte-identical data across engines, and
* after a final sync, the file's durable device bytes are identical.

With a :class:`~repro.fault.plan.FaultPlan` installed (a fresh plan per
engine, so each sees the same deterministic fault stream relative to its
own operations), retries and degradation must keep those functional
results unchanged — only the cycle totals may move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common import units
from repro.fault.plan import FaultPlan, FaultSpec, plan_installed
from repro.mmio.files import BackingFile, ExtentAllocator
from repro.sim import rand

#: Engines the oracle replays through.
ENGINE_KINDS = ("aquila", "linux", "kmmap", "explicit")

_FILE_NAME = "differential-oracle"


@dataclass
class WorkloadOp:
    """One operation of a generated workload."""

    kind: str                # "write" | "read" | "sync"
    offset: int = 0
    nbytes: int = 0
    data: bytes = b""


def generate_workload(
    seed: int,
    num_ops: int = 64,
    file_bytes: int = 64 * units.PAGE_SIZE,
    max_io_bytes: int = 3 * units.PAGE_SIZE,
) -> List[WorkloadOp]:
    """A seed-deterministic random mix of writes, reads and syncs."""
    if file_bytes % units.PAGE_SIZE:
        raise ValueError("file_bytes must be page-aligned")
    rng = rand.stream(seed, "differential.workload")
    ops: List[WorkloadOp] = []
    for _ in range(num_ops):
        u = rng.random()
        offset = rng.randrange(file_bytes)
        nbytes = 1 + rng.randrange(min(max_io_bytes, file_bytes - offset))
        if u < 0.45:
            ops.append(
                WorkloadOp("write", offset, nbytes, bytes(rng.randbytes(nbytes)))
            )
        elif u < 0.90:
            ops.append(WorkloadOp("read", offset, nbytes))
        else:
            ops.append(WorkloadOp("sync"))
    return ops


@dataclass
class EngineRun:
    """One engine's functional result for a workload."""

    kind: str
    reads: List[bytes]
    durable: bytes           # file bytes on the device after final sync
    cycles: float
    fault_summary: Dict[str, Dict[str, int]] = field(default_factory=dict)


def _make_stack(kind: str, cache_pages: int, capacity_bytes: int):
    """A fresh, independent stack for one engine kind.

    Imported lazily: building stacks pulls in the engine modules, which
    import :mod:`repro.fault` — a module-level import here would cycle.
    """
    from repro.bench import setups
    from repro.hw.machine import Machine
    from repro.mmio.explicit import ExplicitIOEngine

    if kind == "explicit":
        machine = Machine()
        device = setups.make_device("pmem", capacity_bytes)
        engine = ExplicitIOEngine(machine, cache_pages=cache_pages)
        return setups.Stack(machine, device, engine, ExtentAllocator(device))
    return setups.make_stack(kind, "pmem", cache_pages, capacity_bytes)


def _durable_bytes(file: BackingFile) -> bytes:
    """The file's bytes as they sit on the device right now."""
    return b"".join(
        file.device.store.read(file.device_offset(page), units.PAGE_SIZE)
        for page in range(file.size_pages)
    )


def run_engine(
    kind: str,
    ops: List[WorkloadOp],
    fault_plan: Optional[FaultPlan] = None,
    cache_pages: int = 256,
    file_bytes: int = 64 * units.PAGE_SIZE,
    capacity_bytes: int = 16 * units.MIB,
) -> EngineRun:
    """Replay ``ops`` through one engine; returns its functional result."""
    ctx = plan_installed(fault_plan) if fault_plan is not None else None
    if ctx is not None:
        ctx.__enter__()
    try:
        stack = _make_stack(kind, cache_pages, capacity_bytes)
        file = stack.allocator.create(_FILE_NAME, file_bytes)
        thread = stack.machine.thread(0)
        reads: List[bytes] = []
        if kind == "explicit":
            io = stack.engine
            for op in ops:
                if op.kind == "write":
                    io.pwrite(thread, file, op.offset, op.data)
                elif op.kind == "read":
                    reads.append(io.pread(thread, file, op.offset, op.nbytes))
                else:
                    io.fsync(thread, file)
            io.fsync(thread, file)
        else:
            mapping = stack.engine.mmap(thread, file)
            for op in ops:
                if op.kind == "write":
                    mapping.store(thread, op.offset, op.data)
                elif op.kind == "read":
                    reads.append(mapping.load(thread, op.offset, op.nbytes))
                else:
                    mapping.msync(thread)
            mapping.msync(thread)
        summary = fault_plan.summary() if fault_plan is not None else {}
        return EngineRun(kind, reads, _durable_bytes(file), thread.clock.now, summary)
    finally:
        if ctx is not None:
            ctx.__exit__(None, None, None)


@dataclass
class DifferentialResult:
    """Outcome of one cross-engine differential run."""

    seed: int
    ops: List[WorkloadOp]
    runs: Dict[str, EngineRun]
    mismatches: List[str]

    @property
    def ok(self) -> bool:
        """True when every engine agreed on every functional result."""
        return not self.mismatches


def run_differential(
    seed: int,
    num_ops: int = 64,
    fault_spec: Optional[FaultSpec] = None,
    engines: Tuple[str, ...] = ENGINE_KINDS,
    cache_pages: int = 256,
    file_bytes: int = 64 * units.PAGE_SIZE,
) -> DifferentialResult:
    """Replay one random workload through every engine and compare.

    Each engine gets an independent stack and — when ``fault_spec`` is
    given — its own fresh :class:`FaultPlan` seeded identically, so the
    fault schedule is deterministic per engine.
    """
    ops = generate_workload(seed, num_ops=num_ops, file_bytes=file_bytes)
    runs: Dict[str, EngineRun] = {}
    for kind in engines:
        plan = FaultPlan(seed, fault_spec) if fault_spec is not None else None
        runs[kind] = run_engine(
            kind, ops, fault_plan=plan,
            cache_pages=cache_pages, file_bytes=file_bytes,
        )
    mismatches: List[str] = []
    reference = runs[engines[0]]
    for kind in engines[1:]:
        run = runs[kind]
        if len(run.reads) != len(reference.reads):
            mismatches.append(
                f"{kind}: {len(run.reads)} reads vs "
                f"{reference.kind}: {len(reference.reads)}"
            )
            continue
        for index, (got, want) in enumerate(zip(run.reads, reference.reads)):
            if got != want:
                mismatches.append(
                    f"{kind}: read #{index} differs from {reference.kind} "
                    f"({len(got)} bytes)"
                )
        if run.durable != reference.durable:
            first_diff = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(run.durable, reference.durable))
                    if a != b
                ),
                min(len(run.durable), len(reference.durable)),
            )
            mismatches.append(
                f"{kind}: durable bytes differ from {reference.kind} "
                f"at offset {first_diff}"
            )
    return DifferentialResult(seed, ops, runs, mismatches)
