"""End-to-end sweep benchmark: pinned figure cells timed through the real sweep path.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N] [--seconds S] [--trace [0|1]]
    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl

Each (workload, pass) runs in a fresh child interpreter (``child.py``),
one child at a time: a closed loop with one client, cells back to back
through ``repro.bench.sweep.run_unit`` with telemetry on, as
``python -m repro.bench sweep --workers 1`` runs them.  Rounds of one
pass per workload repeat, with the workload order rotated each round,
up to ``PASSES`` rounds or until another round would overrun
``--seconds``.  ``--trace`` adds one cProfile pass per workload for the
per-layer numbers.

Times are stated at the reference host speed of ``hostprobe``: shared
hosts drift by up to 2x within minutes, and a fixed probe timed every
half second while the cells run measures by how much.  The raw times
stay in the results record.

Every cell's state digest is checked against ``cells.json``; the traced
pass must reproduce the timed passes' state and telemetry digests.  Any
failure counts against ``failed_frac``.  Every metric is printed by name
with its unit, one results record is appended to ``--out`` (JSON
lines), and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional

from benchstats import quartiles, spread, verdict
from layerfold import LAYERS, OTHER
from workloads import WORKLOADS, draw, load_pins

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(HERE, "results", "runs.jsonl")

#: Timed passes per workload when ``--seconds`` does not stop them first.
PASSES = 5

#: Set-up samples per workload; set-up-only children top up short runs.
SETUP_SAMPLES = 5

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170


class ChildError(RuntimeError):
    """A benchmark child exited abnormally."""


def load_spec() -> Dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def spawn(cell_ids: List[str], profile: bool = False) -> Dict:
    """Run one child to completion; returns its report plus ``setup_s``."""
    cmd = [sys.executable, CHILD] + (["--profile"] if profile else []) + cell_ids
    # Children keep compiled bytecode, as a user's sweep does, whatever
    # this process was started with; set-up time then excludes compiling.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child timed out after {CHILD_TIMEOUT_S}s: {cell_ids}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    report = json.loads(lines[-1])
    report["raw_setup_s"] = report["ready"] - start
    if "setup_scale" in report:  # untraced children probe the host speed
        report["setup_s"] = report["raw_setup_s"] * report["setup_scale"]
    return report


def run_passes(plan: Dict[str, List[str]], seconds: Optional[float]) -> Dict[str, List[Dict]]:
    """Timed passes per workload, rounds rotating the workload order."""
    names = list(plan)
    passes: Dict[str, List[Dict]] = {name: [] for name in names}
    start, longest = time.monotonic(), 0.0
    for round_index in range(PASSES):
        shift = round_index % len(names)
        round_start = time.monotonic()
        for name in names[shift:] + names[:shift]:
            passes[name].append(spawn(plan[name]))
        longest = max(longest, time.monotonic() - round_start)
        if seconds is not None and time.monotonic() - start + longest > seconds:
            break
    return passes


def check_cells(report: Dict, reference: Optional[Dict], label: str) -> List[str]:
    """Failure descriptions for one pass; ``reference`` is the first timed pass."""
    failures = []
    for index, cell in enumerate(report["cells"]):
        cid = cell["cell_id"]
        if cell["status"] != "ok":
            failures.append(f"{label} {cid}: {cell['status']}: {cell['error']}")
        elif cell["drift"]:
            failures.append(f"{label} {cid}: pinned config differs from the live grid; re-pin")
        elif not cell["digest_ok"]:
            failures.append(f"{label} {cid}: state digest differs from the pinned one")
        elif reference is not None and (
            reference["cells"][index]["telemetry_digest"] != cell["telemetry_digest"]
        ):
            failures.append(f"{label} {cid}: telemetry digest differs from the first timed pass")
    return failures


def summarize(cell_ids: List[str], passes: List[Dict], setups: List[float],
              traced: Optional[Dict]) -> Dict:
    """One workload's results: metrics, failures and per-pass detail."""
    failures = []
    for index, report in enumerate(passes):
        failures += check_cells(report, passes[0] if index else None, f"pass {index}")
    if traced is not None:
        failures += check_cells(traced, passes[0], "traced pass")
    attempted = len(cell_ids) * (len(passes) + (traced is not None))
    walls = [report["norm_wall_s"] for report in passes]
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": median([report["maxrss_kib"] / 1024 for report in passes]),
        "failed_frac": len(failures) / attempted,
    }
    if traced is not None:
        counters: Dict[str, float] = {}
        for cell in traced["cells"]:
            for key, value in cell["counters"].items():
                counters[key] = counters.get(key, 0) + value
        faults = counters.get("mmio.faults", 0)
        for layer in LAYERS + (OTHER,):
            metrics[f"{layer}.self_s"] = traced["layers"][layer]["self_s"]
            metrics[f"{layer}.calls"] = traced["layers"][layer]["calls"]
        metrics.update(counters)
        metrics["mmio.slow_fault_frac"] = traced["slow_faults"] / faults if faults else 0.0
        metrics["mmio.host_us_per_fault"] = metrics["wall_s"] * 1e6 / faults if faults else 0.0
        metrics["trace_overhead_x"] = traced["wall_s"] / median([r["wall_s"] for r in passes])
    return {
        "cells": cell_ids,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "setup_samples": setups,
        "passes": [
            {
                "wall_s": report["norm_wall_s"],
                "raw_wall_s": report["wall_s"],
                "setup_s": report["setup_s"],
                "raw_setup_s": report["raw_setup_s"],
                "probes_s": report["probes"],
                "peak_rss_mb": report["maxrss_kib"] / 1024,
                "cell_wall_s": {cell["cell_id"]: cell["wall_s"] for cell in report["cells"]},
            }
            for report in passes
        ],
        "traced_raw_wall_s": traced["wall_s"] if traced is not None else None,
    }


def measure(names: List[str], seed: int, seconds: Optional[float], trace: bool) -> Dict:
    """Run the benchmark; returns the results record."""
    pins = load_pins()
    plan = {name: draw(name, seed, list(pins)) for name in names}
    spawn([])  # warm-up: fills the page and bytecode caches before timing
    passes = run_passes(plan, seconds)
    results = {}
    for name in names:
        setups = [report["setup_s"] for report in passes[name]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn([])["setup_s"])
        traced = spawn(plan[name], profile=True) if trace else None
        results[name] = summarize(plan[name], passes[name], setups, traced)
    return {
        "schema": 1,
        "kind": "e2e",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "workloads": results,
    }


def print_report(record: Dict, spec: Dict) -> None:
    """Every metric by name, with its unit."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "ratio"
    for name, result in record["workloads"].items():
        passes = result["passes"]
        walls = [p["wall_s"] for p in passes]
        q1, q3 = quartiles(walls)
        print(f"{name}: {len(result['cells'])} cells x {len(passes)} passes "
              f"(seed {record['seed']}); wall quartiles {q1:.3f}..{q3:.3f} s, "
              f"spread {spread(walls):.1%}")
        for metric, value in result["metrics"].items():
            print(f"  {name}.{metric:<26} {value:>16.6g} {units.get(metric, '')}")
        for failure in result["failures"]:
            print(f"  FAILED {failure}")


def contract_line(record: Dict, spec: Dict, trace: bool) -> Dict:
    """The final JSON line: the end-to-end or per-layer metrics of the run."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    results = record["workloads"]
    single = len(results) == 1
    out = {}
    for name, result in results.items():
        for metric in metrics:
            key = metric["name"] if single else f"{name}.{metric['name']}"
            out[key] = {"value": result["metrics"][metric["name"]], "unit": metric["unit"]}
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": out,
    }


def load_records(path: str) -> List[Dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare(path_a: str, path_b: str, spec: Dict) -> int:
    """Print per workload x end-to-end metric verdicts for two result sets.

    Runs are paired in file order per workload and must cover the same
    seeds on both sides.
    """
    runs_a, runs_b = load_records(path_a), load_records(path_b)
    names = list(dict.fromkeys(name for run in runs_a for name in run["workloads"]))
    paired = {}
    for name in names:
        a = [run for run in runs_a if name in run["workloads"]]
        b = [run for run in runs_b if name in run["workloads"]]
        if [run["seed"] for run in a] != [run["seed"] for run in b]:
            print(f"error: {name}: the two sets must hold runs of the same seeds in the same order",
                  file=sys.stderr)
            return 2
        paired[name] = (a, b)
    print(f"{'workload':<13} {'metric':<12} {'median A':>10} {'q1..q3 A':>19} "
          f"{'median B':>10} {'q1..q3 B':>19} {'wins A/B':>9} {'B vs A':>8}  verdict")
    for name, (parent, change) in paired.items():
        def values(runs, metric):
            return [run["workloads"][name]["metrics"][metric] for run in runs]

        for metric in spec["end_to_end"]:
            v = verdict(values(parent, metric["name"]), values(change, metric["name"]),
                        metric["bound"], metric["better"] == "lower")
            print(f"{name:<13} {metric['name']:<12} {v['median_a']:>10.4g} "
                  f"{v['quartiles_a'][0]:>9.4g}..{v['quartiles_a'][1]:<8.4g} "
                  f"{v['median_b']:>10.4g} {v['quartiles_b'][0]:>9.4g}..{v['quartiles_b'][1]:<8.4g} "
                  f"{v['wins_a']:>4}/{v['wins_b']:<4} {v['worse_by']:>+8.1%}  {v['verdict']}")
        # Bound 0: any failure the parent did not have is a regression.
        a, b = values(parent, "failed_frac"), values(change, "failed_frac")
        print(f"{name:<13} {'failed_frac':<12} {median(a):>10.4g} {'':>19} {median(b):>10.4g} "
              f"{'':>29}  {'regressed' if sum(b) > sum(a) else 'unchanged'}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", help="parent results (JSON lines from --out)")
        parser.add_argument("b", help="change results, same seeds in the same order")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, spec)

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the named slices; others draw from the same strata")
    parser.add_argument("--seconds", type=float, default=None,
                        help="stop starting timed rounds once another would overrun this")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one cProfile pass per workload; print per-layer metrics")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="results file to append this run's record to")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    try:
        record = measure(names, args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print_report(record, spec)
    print(f"appended results to {os.path.relpath(args.out, ROOT)}")
    line = contract_line(record, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
