"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 benchmarks/e2e/child.py [--profile] [CELL_ID ...]

Set-up mirrors ``python -m repro.bench sweep``: import the sweep, enumerate
the live figure grid, and resolve each requested cell from ``cells.json``
(a pinned config digest that no longer matches the live grid is reported
as drift).  The cells then run back to back through
``repro.bench.sweep.run_unit`` with telemetry on, exactly as a
``workers=1`` sweep runs them.  With no cell ids the child stops after
set-up, which is how the parent samples set-up time on its own.

Untraced children time a fixed host-speed probe (``hostprobe``) right
after set-up and every half second while the cells run, and report the
cell time both raw and scaled to the reference host speed.

``--profile`` wraps set-up and cells in cProfile and folds the profile
by package (``layerfold``).  cProfile leaves ``repro.obs.TRACER`` alone,
so the profiled cells take the same code path as the timed ones.
"""

from __future__ import annotations

import json
import os
import pstats
import re
import resource
import statistics
import sys
import time

from hostprobe import REFERENCE_S, Sampler, probe
from layerfold import count_calls, fold
from workloads import load_pins

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Probes taken right after set-up; their median scales the set-up time.
SETUP_PROBES = 5

#: Telemetry metric families summed over a pass, as (name, key regex).
COUNTER_PATTERNS = (
    ("mmio.faults", r"engine\.[^.]+\.faults\.total"),
    ("mmio.hit_run_ops", r"engine\.[^.]+\.batched_hits"),
    ("cache.evictions", r"cache\.[^.]+\.evictions"),
    ("hw.shootdown_ipis", r"tlb\.shootdown\.[^.]+\.ipis_sent"),
    ("devices.bytes_read", r"device\.[^.]+\.bytes_read"),
    ("devices.bytes_written", r"device\.[^.]+\.bytes_written"),
)


def cell_counters(telemetry: dict) -> dict:
    """The deterministic per-cell counts the benchmark reports."""
    metrics = telemetry.get("metrics", {})
    out = {
        name: sum(v for k, v in metrics.items() if re.fullmatch(pattern, k))
        for name, pattern in COUNTER_PATTERNS
    }
    out["sim.locks_contended"] = telemetry["locks"]["contended"]
    out["fault.retries"] = telemetry["faults"]["retries"]
    out["obs.spans"] = telemetry["spans"]["finished"]
    out["obs.spans_dropped"] = telemetry["spans"]["dropped"]
    return out


def run_cells(cell_ids, pins, live, run_unit):
    """Run the cells back to back; returns (cell reports, seconds)."""
    cells, wall = [], 0.0
    for cell_id in cell_ids:
        pin = pins[cell_id]
        cell = {key: pin[key] for key in ("cell_id", "figure", "runner", "params", "config_digest")}
        start = time.monotonic()
        record = run_unit(cell)
        wall += time.monotonic() - start
        ok = record["status"] == "ok"
        cells.append(
            {
                "cell_id": cell_id,
                "status": record["status"],
                "error": record.get("error"),
                "drift": live.get(cell_id) != pin["config_digest"],
                "digest_ok": ok and record["state_digest"] == pin["state_digest"],
                "state_digest": record.get("state_digest"),
                "telemetry_digest": record.get("telemetry_digest"),
                "wall_s": record.get("wall_seconds"),
                "counters": cell_counters(record["telemetry"]) if ok else {},
            }
        )
    return cells, wall


def run(cell_ids, profile: bool) -> dict:
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.bench.sweep import enumerate_cells, run_unit

    live = {cell["cell_id"]: cell["config_digest"] for cell in enumerate_cells(scale="figure")}
    pins = load_pins()
    out = {"ready": time.monotonic()}

    if profiler is not None:
        # Raw host time only: the profiler would time the probes too.
        out["cells"], out["wall_s"] = run_cells(cell_ids, pins, live, run_unit)
        profiler.disable()
        raw = pstats.Stats(profiler).stats
        out["layers"] = fold(raw)
        out["slow_faults"] = count_calls(raw, "mmio", "_fault")
    else:
        setup_probe = statistics.median(probe() for _ in range(SETUP_PROBES))
        with Sampler() as sampler:
            out["cells"], wall = run_cells(cell_ids, pins, live, run_unit)
        out["wall_s"] = wall - sampler.spent
        out["norm_wall_s"] = out["wall_s"] * sampler.scale(setup_probe)
        out["setup_scale"] = REFERENCE_S / setup_probe
        out["probes"] = sampler.samples
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def main(argv) -> int:
    profile = "--profile" in argv
    cell_ids = [arg for arg in argv if arg != "--profile"]
    print(json.dumps(run(cell_ids, profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
