"""Structured, seed-stable telemetry snapshots for cross-process export.

A **cell telemetry snapshot** is the serializable summary a sweep worker
ships back through the manifest channel after executing one figure cell:
every metric the cell's registry collected (counters, pull probes,
histogram bucket dumps plus quantile summaries), the per-stage
attribution of its simulated cycles, span/drop counts, fault-retry
totals, lock contention, and the cell's wall time.

Stage attribution comes from the always-on cycle ledger, not from spans:
every :class:`~repro.sim.executor.SimThread` registers its clock with the
active registry scope at construction, and the snapshot folds those
clocks' :class:`~repro.sim.clock.Breakdown` categories through
:data:`DEFAULT_STAGE_RULES`.  A cell therefore needs no tracer to be
observed, and its attribution covers every cycle its threads charged.

The determinism contract mirrors the sweep's state-digest contract
(DESIGN.md §10): everything in the snapshot except the explicitly
nondeterministic keys (:data:`NONDETERMINISTIC_KEYS` — wall time and
environment facts) is a pure function of the cell's params, so two runs
of the same cell — in any process, at any worker count — produce
byte-identical :func:`telemetry_bytes` and equal
:func:`telemetry_digest` values.  Telemetry is *observational*: nothing
here feeds back into simulation state, so collecting it changes no
state digest.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import TRACER, Tracer

#: Telemetry schema version (bump on incompatible snapshot changes).
TELEMETRY_SCHEMA = 2

#: Top-level snapshot keys excluded from the deterministic view: wall
#: time is honest but machine-dependent, and ``env`` is reserved for
#: environment facts (hostnames, pids) a caller may attach.
NONDETERMINISTIC_KEYS = ("wall_seconds", "env")

#: Ordered (breakdown-category glob -> stage) folding rules; the first
#: match wins.  These are the stages of every cell's
#: ``attribution.stages`` and of EXPERIMENTS.md's sweep stage attribution.
DEFAULT_STAGE_RULES: Tuple[Tuple[str, str], ...] = (
    ("*.retry_backoff", "retry"),
    ("app.*", "app"),
    ("fault.io*", "device_io"),
    ("idle.io*", "device_io"),
    ("idle.fault.io*", "device_io"),
    ("io.syscall*", "syscall"),
    ("io.*", "device_io"),
    ("syscall.msync", "msync"),
    ("msync.*", "msync"),
    ("syscall.*", "syscall"),
    ("vmcall.*", "syscall"),
    ("writeback.*", "writeback"),
    ("reclaim.writeback*", "writeback"),
    ("cache.*", "cache_mgmt"),
    ("evict.*", "cache_mgmt"),
    ("reclaim.*", "cache_mgmt"),
    ("ucache.*", "cache_mgmt"),
    ("fault.*", "fault_path"),
    ("tlb.*", "tlb"),
    ("interference.ipi", "tlb"),
    ("idle.*", "idle"),
)

#: How many top breakdown categories (by cycles) a snapshot retains.
TOP_CATEGORY_LIMIT = 12


def _as_number(value: Any) -> float:
    return float(value) if isinstance(value, (int, float)) else 0.0


def cell_categories(registry: Optional[MetricsRegistry] = None) -> Dict[str, float]:
    """Cycles per breakdown category, merged over the scope's clocks."""
    registry = registry if registry is not None else METRICS
    merged: Dict[str, float] = {}
    for clock in registry.clocks():
        for category, cycles in clock.breakdown.items():
            merged[category] = merged.get(category, 0.0) + cycles
    return dict(sorted(merged.items()))


def fold_stages(
    categories: Dict[str, float],
    rules: Sequence[Tuple[str, str]] = DEFAULT_STAGE_RULES,
) -> Dict[str, float]:
    """Fold category cycles into stages by the first matching glob rule.

    Unmatched categories land in "other".  Every stage named in the rules
    appears in the result (possibly 0.0), so tables have stable rows.
    """
    stages: Dict[str, float] = {stage: 0.0 for _, stage in rules}
    stages.setdefault("other", 0.0)
    for category, cycles in sorted(categories.items()):
        stage = next(
            (stage for pattern, stage in rules if fnmatchcase(category, pattern)),
            "other",
        )
        stages[stage] += cycles
    return stages


def top_categories(
    categories: Dict[str, float], limit: int = TOP_CATEGORY_LIMIT
) -> List[Tuple[str, float]]:
    """The ``limit`` largest ``(category, cycles)`` pairs, descending."""
    return sorted(categories.items(), key=lambda row: (-row[1], row[0]))[:limit]


def collect_cell_telemetry(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    stage_rules: Sequence[Tuple[str, str]] = DEFAULT_STAGE_RULES,
    wall_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """One cell's telemetry snapshot from its registry (and tracer) state.

    Call at the end of a cell, inside the same
    :meth:`~repro.obs.metrics.MetricsRegistry.isolated` scope the cell
    ran in, so the snapshot sees exactly the cell's own clocks and
    metrics.  The tracer only contributes its span/drop counts, which
    are 0/0 for an untraced cell.  Every field except ``wall_seconds``
    is deterministic given the cell's params.
    """
    tracer = tracer if tracer is not None else TRACER
    registry = registry if registry is not None else METRICS
    categories = cell_categories(registry)
    stages = fold_stages(categories, stage_rules)
    snapshot = registry.snapshot()
    telemetry: Dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA,
        "metrics": snapshot,
        "histogram_summaries": {
            name: histogram.summary()
            for name, histogram in sorted(registry.histograms().items())
        },
        "attribution": {
            "stages": {stage: round(cycles, 2) for stage, cycles in stages.items()},
            "total_cycles": round(sum(categories.values()), 2),
            "top_categories": [
                {"category": category, "cycles": round(cycles, 2)}
                for category, cycles in top_categories(categories)
            ],
        },
        "spans": {
            "finished": tracer.total_finished,
            "dropped": tracer.dropped,
        },
        "faults": {
            "retries": _as_number(snapshot.get("fault.retries", 0)),
            "giveups": _as_number(snapshot.get("fault.giveups", 0)),
        },
        "locks": {
            "acquisitions": _as_number(snapshot.get("locks.acquisitions", 0)),
            "contended": _as_number(snapshot.get("locks.contended", 0)),
            "wait_cycles": _as_number(snapshot.get("locks.wait_cycles", 0)),
        },
    }
    if wall_seconds is not None:
        telemetry["wall_seconds"] = round(wall_seconds, 6)
    return telemetry


def deterministic_view(telemetry: Dict[str, Any]) -> Dict[str, Any]:
    """The snapshot minus its nondeterministic top-level keys."""
    return {
        key: value
        for key, value in telemetry.items()
        if key not in NONDETERMINISTIC_KEYS
    }


def telemetry_bytes(telemetry: Dict[str, Any]) -> bytes:
    """Canonical bytes of the deterministic view (byte-identical per cell).

    Uses the same canonical serialization as the sweep's state digests
    (:func:`repro.sim.conformance.canonical_bytes`), so tuple/list and
    key-order differences cannot fake a telemetry change.
    """
    from repro.sim.conformance import canonical_bytes

    return canonical_bytes(deterministic_view(telemetry))


def telemetry_digest(telemetry: Dict[str, Any]) -> str:
    """Canonical hash of the deterministic view of a snapshot."""
    from repro.sim.conformance import hash_digest

    return hash_digest(deterministic_view(telemetry))


def stage_shares(telemetry: Dict[str, Any]) -> Dict[str, float]:
    """Per-stage cycle shares (0..1, summing to ~1) of one snapshot."""
    stages = telemetry.get("attribution", {}).get("stages", {})
    total = sum(stages.values())
    if total <= 0:
        return {stage: 0.0 for stage in stages}
    return {stage: round(cycles / total, 6) for stage, cycles in stages.items()}


def merge_stage_cycles(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Sum per-stage cycles across many snapshots (sweep-level rollup)."""
    merged: Dict[str, float] = {}
    for telemetry in snapshots:
        for stage, cycles in telemetry.get("attribution", {}).get("stages", {}).items():
            merged[stage] = merged.get(stage, 0.0) + cycles
    return {stage: round(cycles, 2) for stage, cycles in sorted(merged.items())}
