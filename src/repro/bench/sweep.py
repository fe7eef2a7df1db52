"""Parallel paper-sweep orchestrator with resumable run manifests.

``python -m repro.bench sweep`` enumerates every figure cell of the
paper's evaluation as an independent, seed-deterministic work unit
(each experiment module exposes ``enumerate_cells``), fans the units out
across a multiprocess worker pool, and merges results through a
content-addressed **run manifest**: an append-only JSON-lines file where
every completed cell records its id, config digest, state digest,
latency-stat payload, wall time, and worker attempts.

Determinism contract (DESIGN.md §9): a cell's state digest is a pure
function of its params.  Each unit resets the global ``SimThread`` /
``BackingFile`` id counters, builds a fresh stack, and derives every
random stream from seeds in its params, so the digest does not depend on
which worker ran it, what ran before it in that process, or how many
workers the sweep used — a 4-way-sharded sweep produces per-cell digests
bit-identical to a serial run (``tests/bench/test_sweep_digests.py``).

Resumability: a crashed or interrupted sweep is restarted with
``--resume``; manifest-complete cells (same cell id *and* config digest)
are skipped, everything else re-runs.  The manifest is written one
fsynced line per cell, so at most the in-flight cells are lost to a
crash.  Failed cells are retried inside the worker with the
:mod:`repro.fault.retry` backoff machinery (wall-clock backoff at the
simulated cycle scale) and surfaced in the summary — never swallowed.
A completed cell whose fresh state digest disagrees with a prior
manifest entry for the same config is reported as a **mismatch** (a
determinism violation) and fails the sweep.

Telemetry (DESIGN.md §10): by default every cell executes inside
isolated tracer/registry scopes and ships a structured telemetry
snapshot (:mod:`repro.obs.events`) back through its manifest record —
per-stage cycle attribution folded from the cell threads' cycle
breakdowns, metrics, histogram summaries, retries, wall time.  Cells run
untraced, so telemetry never changes which code path executes.  The
isolation is the worker-reuse guarantee: a pooled process that runs many
cells gives each one a fresh registry and span ring, so no counter can
leak between cells.  Telemetry is observational — state digests are
identical with it on or off — and its deterministic view is
byte-identical across reruns of the same cell.
``--profile`` additionally wraps each cell in cProfile and writes
content-addressed artifacts next to the manifest
(:mod:`repro.obs.profiling`); ``--dashboard`` renders the aggregation
stream live (:mod:`repro.obs.dashboard`).
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common import units
from repro.sim.conformance import hash_digest

#: Manifest schema version (bump on incompatible record changes).
MANIFEST_SCHEMA = 1

#: Default manifest location — the committed figure-scale artifact that
#: ``python -m repro.bench report`` regenerates EXPERIMENTS.md from.
DEFAULT_MANIFEST = "benchmarks/MANIFEST_sweep.jsonl"

#: Experiment modules providing ``enumerate_cells`` / ``run_sweep_cell``,
#: keyed by runner name, in sweep order.
FIGURE_MODULES = {
    "fig5": "repro.bench.experiments.fig5",
    "fig6": "repro.bench.experiments.fig6",
    "fig7": "repro.bench.experiments.fig7",
    "fig8": "repro.bench.experiments.fig8",
    "fig9": "repro.bench.experiments.fig9",
    "fig10": "repro.bench.experiments.fig10",
    "serve": "repro.bench.experiments.serve",
    "cluster": "repro.bench.experiments.cluster",
}


def _module_for(runner: str):
    return importlib.import_module(FIGURE_MODULES[runner])


class WallClock:
    """A wall-time clock speaking the simulator's clock protocol.

    The orchestrator lives in real time, but the retry machinery
    (:func:`repro.fault.retry.with_retries`) and the tracer expect a
    clock with ``now`` and ``charge``.  ``now`` counts *wall* cycles
    (elapsed seconds x the simulated CPU frequency) so orchestrator
    spans export to Chrome traces with real microsecond timestamps, and
    ``charge`` sleeps the charged cycles — exponential retry backoff at
    honest (microsecond) scale.
    """

    owner_name = "sweep"

    def __init__(self) -> None:
        self.now = 0.0
        self._obs_track = None
        self._obs_span = None

    def charge(self, category: str, cycles: float) -> None:
        """Advance by ``cycles`` wall-cycles, sleeping them for real."""
        if self._obs_span is not None:
            self._obs_span.charge(category, cycles)
        self.now += cycles
        time.sleep(cycles / units.CPU_FREQ_HZ)


def enumerate_cells(
    figures: Optional[List[str]] = None, scale: str = "figure"
) -> List[Dict]:
    """Every sweep work unit, in deterministic order, with config digests.

    ``figures`` filters by prefix ("fig10" keeps fig10a and fig10b;
    "fig5b" keeps just that variant).  ``scale`` is "figure" (the paper
    grid) or "bench" (shrunk for tests/CI).  Each returned dict carries
    ``cell_id``, ``figure``, ``runner``, ``params``, and
    ``config_digest`` — the canonical hash of (cell id, runner, params),
    which is what makes manifest entries content-addressed.
    """
    if scale not in ("figure", "bench"):
        raise ValueError(f"unknown scale {scale!r} (use 'figure' or 'bench')")
    cells: List[Dict] = []
    for runner in FIGURE_MODULES:
        for cell in _module_for(runner).enumerate_cells(scale):
            cell = dict(cell)
            cell["runner"] = runner
            cell["config_digest"] = hash_digest(
                {
                    "cell_id": cell["cell_id"],
                    "runner": runner,
                    "params": cell["params"],
                }
            )
            cells.append(cell)
    if figures:
        for token in figures:
            if not any(
                c["figure"].startswith(token) or c["runner"] == token for c in cells
            ):
                known = ", ".join(sorted(FIGURE_MODULES))
                raise ValueError(
                    f"--figures {token!r} matches no cells (figures: {known})"
                )
        cells = [
            c
            for c in cells
            if any(c["figure"].startswith(f) or c["runner"] == f for f in figures)
        ]
    return cells


def _jsonable(obj):
    """``obj`` with JSON-safe containers (tuples become lists)."""
    return json.loads(json.dumps(obj, default=str))


def _run_cell_observed(cell: Dict, telemetry: bool, profile_dir: Optional[str]):
    """Run a cell inside isolated obs scopes; returns (out, wall, extras).

    The isolated tracer/registry scopes are the worker-reuse lifecycle
    guarantee: each cell sees an empty span ring and an empty registry
    (plus a freshly reset process-wide lock aggregate), and the outer
    state — the orchestrator's own counters, in serial mode — is
    restored untouched on exit.  The tracer stays *disabled* inside the
    cell, so observed cells take exactly the code path unobserved ones
    do; stage attribution folds the cycle breakdowns of the clocks the
    cell's threads registered in the scope.
    """
    from repro import obs
    from repro.obs import events as obs_events
    from repro.obs import profiling as obs_profiling
    from repro.sim.locks import LOCK_STATS

    module = _module_for(cell["runner"])
    extras: Dict = {}
    with obs.TRACER.isolated(enable=False), obs.METRICS.isolated(enable=True):
        LOCK_STATS.reset()
        obs.METRICS.bind_object(
            "locks",
            LOCK_STATS,
            {
                "acquisitions": "acquisitions",
                "contended": "contended",
                "wait_cycles": "wait_cycles",
            },
        )
        start = time.perf_counter()
        if profile_dir:
            out, profiler = obs_profiling.profile_call(
                module.run_sweep_cell, dict(cell["params"])
            )
        else:
            out = module.run_sweep_cell(dict(cell["params"]))
        wall = time.perf_counter() - start
        if telemetry:
            snapshot = obs_events.collect_cell_telemetry(wall_seconds=wall)
            extras["telemetry"] = _jsonable(snapshot)
            extras["telemetry_digest"] = obs_events.telemetry_digest(snapshot)
        if profile_dir:
            extras["profile"] = obs_profiling.write_profile_artifacts(
                profile_dir,
                cell["config_digest"],
                profiler,
                hotspots=obs_profiling.category_hotspots(
                    obs_events.cell_categories()
                ),
                cell_id=cell["cell_id"],
            )
    return out, wall, extras


def _execute_cell(cell: Dict) -> Dict:
    """One hermetic cell execution (no retry): reset ids, run, digest.

    Observability options ride in the cell dict's reserved ``obs`` key
    (set by :func:`run_sweep`, never part of the config digest):
    ``telemetry`` (default on) collects a per-cell snapshot inside
    isolated obs scopes; ``profile_dir`` wraps the cell in cProfile and
    writes content-addressed artifacts there.
    """
    from repro.mmio.files import BackingFile
    from repro.sim.executor import SimThread

    SimThread.reset_ids()
    BackingFile.reset_ids()
    opts = cell.get("obs") or {}
    telemetry = opts.get("telemetry", True)
    profile_dir = opts.get("profile_dir")
    if telemetry or profile_dir:
        out, wall, extras = _run_cell_observed(cell, telemetry, profile_dir)
    else:
        module = _module_for(cell["runner"])
        start = time.perf_counter()
        out = module.run_sweep_cell(dict(cell["params"]))
        wall = time.perf_counter() - start
        extras = {}
    state = out["state"] if out.get("state") is not None else out["payload"]
    record = {
        "kind": "cell",
        "cell_id": cell["cell_id"],
        "figure": cell["figure"],
        "runner": cell["runner"],
        "config_digest": cell["config_digest"],
        "state_digest": hash_digest(state),
        "payload": _jsonable(out["payload"]),
        "wall_seconds": round(wall, 6),
        "status": "ok",
    }
    record.update(extras)
    return record


def run_unit(cell: Dict) -> Dict:
    """Run one work unit with retry; always returns a manifest record.

    This is the function worker processes execute.  Failures inside the
    cell are wrapped as transient faults and retried through
    :func:`repro.fault.retry.with_retries` (same policy, counters and
    ``fault.retry`` spans as the simulated I/O paths, on a
    :class:`WallClock`); a cell still failing after the last attempt
    comes back as a ``status: "failed"`` record — surfaced, not raised,
    so one bad cell never kills the pool.
    """
    from repro.common.errors import DeviceError, TransientDeviceError
    from repro.fault.retry import with_retries

    attempts = 0

    def attempt():
        nonlocal attempts
        attempts += 1
        try:
            return _execute_cell(cell)
        except Exception as exc:
            raise TransientDeviceError(f"{cell['cell_id']}: {exc!r}") from exc

    try:
        entry = with_retries(WallClock(), attempt, category="sweep.cell")
    except DeviceError as exc:
        entry = {
            "kind": "cell",
            "cell_id": cell["cell_id"],
            "figure": cell["figure"],
            "runner": cell["runner"],
            "config_digest": cell["config_digest"],
            "status": "failed",
            "error": str(exc),
        }
    entry["attempts"] = attempts
    entry["worker_pid"] = os.getpid()
    return entry


# -- manifest ------------------------------------------------------------------


def load_manifest(path: str) -> List[Dict]:
    """All parseable records of a manifest file, oldest first.

    A truncated final line (the signature of a crash mid-write) is
    skipped, not fatal — that is what makes the manifest resumable.
    """
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def index_manifest(records: List[Dict]) -> Dict[str, Dict]:
    """Latest ``status: ok`` cell record per cell id."""
    index: Dict[str, Dict] = {}
    for record in records:
        if record.get("kind") == "cell" and record.get("status") == "ok":
            index[record["cell_id"]] = record
    return index


def sweep_digest(index: Dict[str, Dict]) -> str:
    """The sweep-level hash: canonical digest of every cell's state hash.

    Per-cell digests compose: since each cell's state digest is a pure
    function of its params, the sorted (cell id, state digest) list — and
    therefore this hash — is identical for serial and sharded runs.
    """
    return hash_digest(
        sorted((cid, entry["state_digest"]) for cid, entry in index.items())
    )


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep` invocation."""

    entries: List[Dict] = field(default_factory=list)   # cells run this time
    skipped: List[Dict] = field(default_factory=list)   # manifest-complete
    failed: List[str] = field(default_factory=list)     # cell ids
    mismatched: List[str] = field(default_factory=list)  # cell ids
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    workers: int = 1
    sweep_digest: str = ""
    manifest_path: str = ""

    @property
    def ok(self) -> bool:
        """True iff no cell failed and no digest mismatched."""
        return not self.failed and not self.mismatched

    def digests(self) -> Dict[str, str]:
        """cell id -> state digest for every completed cell (run or skipped)."""
        out = {e["cell_id"]: e["state_digest"] for e in self.skipped}
        out.update(
            (e["cell_id"], e["state_digest"])
            for e in self.entries
            if e["status"] == "ok"
        )
        return out


def _append(handle, record: Dict) -> None:
    handle.write(json.dumps(record, sort_keys=True) + "\n")
    handle.flush()
    os.fsync(handle.fileno())


def run_sweep(
    figures: Optional[List[str]] = None,
    scale: str = "figure",
    workers: int = 1,
    manifest_path: str = DEFAULT_MANIFEST,
    resume: bool = False,
    verify: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    telemetry: bool = True,
    profile: bool = False,
    dashboard=None,
    history_path: Optional[str] = None,
    cell_filter: Optional[Callable[[Dict], bool]] = None,
) -> SweepResult:
    """Run the paper sweep; returns a :class:`SweepResult`.

    ``workers <= 1`` runs cells serially in-process (the digest baseline);
    ``workers > 1`` fans units out over a process pool.  With ``resume``,
    cells already in the manifest with a matching config digest are
    skipped; with ``verify`` they re-run anyway and their fresh digests
    are compared against the manifest (mismatches fail the sweep).
    Completed cells append to ``manifest_path`` immediately (one fsynced
    JSON line each); a summary record lands at the end.

    ``telemetry`` (default on) ships a per-cell obs snapshot in each
    record; ``profile`` writes cProfile + hotspot artifacts under
    ``<manifest dir>/profiles``; ``dashboard`` is a
    :class:`repro.obs.dashboard.SweepDashboard` fed the aggregation
    stream; ``history_path``, when set, appends a ``kind: "sweep"``
    trajectory record to that JSONL file after the summary.

    ``cell_filter``, when set, keeps only cells it returns truthy for
    (applied after figure/scale enumeration) — how the CLI narrows the
    cluster family to one shard count (``--cluster-shards``).
    """
    from repro import obs
    from repro.obs.dashboard import SweepDashboard

    say = progress if progress is not None else (lambda message: None)
    dash = dashboard if dashboard is not None else SweepDashboard()
    cells = enumerate_cells(figures, scale)
    if cell_filter is not None:
        cells = [cell for cell in cells if cell_filter(cell)]
    prior_records: List[Dict] = []
    resuming = resume and os.path.exists(manifest_path)
    if resuming:
        prior_records = load_manifest(manifest_path)
    prior = index_manifest(prior_records)

    to_run, result = [], SweepResult(workers=max(1, workers), manifest_path=manifest_path)
    for cell in cells:
        prev = prior.get(cell["cell_id"])
        if (
            prev is not None
            and prev["config_digest"] == cell["config_digest"]
            and not verify
        ):
            result.skipped.append(prev)
        else:
            to_run.append(cell)
    profile_dir = None
    if profile:
        profile_dir = os.path.join(os.path.dirname(manifest_path) or ".", "profiles")
    for cell in to_run:
        # Reserved key, never part of the config digest (computed above).
        cell["obs"] = {"telemetry": telemetry, "profile_dir": profile_dir}
    say(
        f"sweep: {len(cells)} cells ({len(result.skipped)} complete in manifest, "
        f"{len(to_run)} to run), {result.workers} worker(s), scale={scale}"
    )
    dash.start(len(cells), len(to_run), len(result.skipped), result.workers, scale)

    clock = WallClock()
    completed_counter = obs.METRICS.counter(
        "sweep.cells.completed", help="sweep cells completed ok"
    )
    failed_counter = obs.METRICS.counter(
        "sweep.cells.failed", help="sweep cells failed after retries"
    )
    retry_counter = obs.METRICS.counter(
        "sweep.cells.retries", help="extra attempts spent on sweep cells"
    )
    wall_hist = obs.METRICS.histogram(
        "sweep.cell.wall_us",
        buckets=tuple(float(10**i) for i in range(2, 9)),
        help="per-cell wall time (microseconds)",
    )

    start = time.perf_counter()

    def handle(entry: Dict, handle_file) -> None:
        _append(handle_file, entry)
        result.entries.append(entry)
        dash.cell_finished(entry)
        if entry["status"] != "ok":
            result.failed.append(entry["cell_id"])
            failed_counter.inc()
            say(f"  FAILED {entry['cell_id']}: {entry.get('error', '?')}")
            return
        completed_counter.inc()
        retry_counter.inc(max(0, entry.get("attempts", 1) - 1))
        wall_hist.observe(entry["wall_seconds"] * 1e6)
        result.cpu_seconds += entry["wall_seconds"]
        prev = prior.get(entry["cell_id"])
        if (
            prev is not None
            and prev["config_digest"] == entry["config_digest"]
            and prev["state_digest"] != entry["state_digest"]
        ):
            result.mismatched.append(entry["cell_id"])
            say(
                f"  MISMATCH {entry['cell_id']}: state {entry['state_digest'][:16]} "
                f"!= manifest {prev['state_digest'][:16]}"
            )
            return
        if obs.TRACER.enabled:
            end_now = (time.perf_counter() - start) * units.CPU_FREQ_HZ
            clock.now = end_now - entry["wall_seconds"] * units.CPU_FREQ_HZ
            with obs.TRACER.span(f"sweep.cell:{entry['cell_id']}", clock):
                clock.now = end_now
        say(
            f"  ok {entry['cell_id']}  {entry['wall_seconds']:.2f}s"
            + (f"  (attempt {entry['attempts']})" if entry.get("attempts", 1) > 1 else "")
        )

    with open(manifest_path, "a" if resuming else "w") as handle_file:
        _append(
            handle_file,
            {
                "kind": "header",
                "schema": MANIFEST_SCHEMA,
                "scale": scale,
                "workers": result.workers,
                "cpu_count": os.cpu_count(),
                "resumed": resuming,
                "cells_total": len(cells),
                "cells_to_run": len(to_run),
            },
        )
        if result.workers <= 1:
            for cell in to_run:
                dash.cell_submitted(cell["cell_id"])
                handle(run_unit(cell), handle_file)
        else:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor, as_completed

            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else "spawn")
            with ProcessPoolExecutor(
                max_workers=result.workers, mp_context=ctx
            ) as pool:
                futures = []
                for cell in to_run:
                    futures.append(pool.submit(run_unit, cell))
                    dash.cell_submitted(cell["cell_id"])
                for future in as_completed(futures):
                    handle(future.result(), handle_file)

        result.wall_seconds = time.perf_counter() - start
        index = index_manifest(prior_records + result.entries)
        result.sweep_digest = sweep_digest(index)
        _append(
            handle_file,
            {
                "kind": "summary",
                "completed": sum(1 for e in result.entries if e["status"] == "ok"),
                "skipped": len(result.skipped),
                "failed": sorted(result.failed),
                "mismatched": sorted(result.mismatched),
                "wall_seconds": round(result.wall_seconds, 6),
                "cpu_seconds": round(result.cpu_seconds, 6),
                "workers": result.workers,
                "sweep_digest": result.sweep_digest,
            },
        )
    dash.finish(result)
    if history_path:
        append_sweep_history(history_path, result, scale=scale)
    say(
        f"sweep: {len(result.entries)} ran, {len(result.skipped)} skipped, "
        f"{len(result.failed)} failed, {len(result.mismatched)} mismatched in "
        f"{result.wall_seconds:.1f}s wall ({result.cpu_seconds:.1f}s cell time); "
        f"digest {result.sweep_digest[:16]}"
    )
    return result


def append_sweep_history(history_path: str, result: SweepResult, scale: str) -> Dict:
    """Append one ``kind: "sweep"`` trajectory record; returns the record.

    The record aggregates per-cell telemetry into sweep-level stage
    cycles/shares (:func:`repro.obs.events.merge_stage_cycles`) so
    consecutive records in ``BENCH_history.jsonl`` can be diffed to
    attribute a wall-time or digest shift to the stage that moved.
    """
    from repro.obs import events as obs_events

    snapshots = [
        entry["telemetry"]
        for entry in result.entries
        if entry.get("status") == "ok" and entry.get("telemetry")
    ]
    stage_cycles = obs_events.merge_stage_cycles(snapshots)
    record = {
        "kind": "sweep",
        "schema": MANIFEST_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": scale,
        "workers": result.workers,
        "sweep_digest": result.sweep_digest,
        "cells_ran": len(result.entries),
        "cells_skipped": len(result.skipped),
        "cells_failed": sorted(result.failed),
        "cells_mismatched": sorted(result.mismatched),
        "wall_seconds": round(result.wall_seconds, 6),
        "cpu_seconds": round(result.cpu_seconds, 6),
        "stage_cycles": stage_cycles,
        "stage_shares": obs_events.stage_shares(
            {"attribution": {"stages": stage_cycles}}
        ),
    }
    directory = os.path.dirname(history_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(history_path, "a") as handle:
        _append(handle, record)
    return record
