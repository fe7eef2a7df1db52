"""Median, bound and failed_frac arithmetic, including a corrupted digest."""

import json
import statistics
import subprocess
import sys

import pytest

import run
from benchstats import quartiles, spread, verdict


def test_quartiles_and_spread():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartiles([4.0]) == (4.0, 4.0) and spread([4.0]) == 0.0


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    assert verdict(parent, [x * 0.8 for x in parent], 0.15)["verdict"] == "improved"
    assert verdict(parent, [x * 1.01 for x in parent], 0.15)["verdict"] == "unchanged"
    assert verdict(parent, [x * 1.3 for x in parent], 0.15)["verdict"] == "regressed"
    # Fewer than ten pairs never claim a gain.
    assert verdict(parent[:5], [x * 0.8 for x in parent[:5]], 0.15)["verdict"] == "unchanged"
    noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    assert verdict(noisy, [x * 1.05 for x in noisy], 0.15)["verdict"] == "unresolved"
    # ...unless every change run reads better than every parent run.
    assert verdict(noisy, [1.0] * 10, 0.15)["verdict"] == "improved"
    v = verdict(parent, [x * 1.3 for x in parent], 0.15)
    assert v["wins_a"] == 10 and v["wins_b"] == 0 and v["worse_by"] == pytest.approx(0.3)


def _cell(cid, **overrides):
    cell = {"cell_id": cid, "status": "ok", "error": None, "drift": False,
            "digest_ok": True, "state_digest": "s", "telemetry_digest": "t",
            "wall_s": 1.0, "counters": {"mmio.faults": 4}}
    cell.update(overrides)
    return cell


def _pass(cells, wall=2.0):
    return {"ready": 0.0, "setup_s": 0.2, "raw_setup_s": 0.2, "wall_s": wall,
            "norm_wall_s": wall, "probes": [0.05, 0.05], "maxrss_kib": 2048, "cells": cells}


def test_summary_counts_each_kind_of_failure():
    ids = ["a", "b"]
    passes = [
        _pass([_cell("a"), _cell("b")], 2.0),
        _pass([_cell("a", digest_ok=False), _cell("b", telemetry_digest="x")], 4.0),
        _pass([_cell("a", status="failed", error="boom"), _cell("b", drift=True)], 3.0),
    ]
    result = run.summarize(ids, passes, [0.1, 0.3, 0.2], None)
    assert result["attempted"] == 6 and result["failed"] == 4
    assert result["metrics"]["failed_frac"] == pytest.approx(4 / 6)
    assert result["metrics"]["wall_s"] == 3.0
    assert result["metrics"]["setup_s"] == 0.2
    assert result["metrics"]["peak_rss_mb"] == 2.0


def test_traced_pass_must_reproduce_the_timed_digests():
    layers = {name: {"self_s": 0.5, "calls": 3} for name in run.LAYERS + (run.OTHER,)}
    traced = dict(_pass([_cell("a"), _cell("b", telemetry_digest="other")], 6.0),
                  layers=layers, slow_faults=2)
    result = run.summarize(["a", "b"], [_pass([_cell("a"), _cell("b")], 2.0)], [0.2], traced)
    assert result["failed"] == 1 and "traced pass b" in result["failures"][0]
    metrics = result["metrics"]
    assert metrics["trace_overhead_x"] == 3.0
    assert metrics["mmio.faults"] == 8
    assert metrics["mmio.slow_fault_frac"] == 0.25
    assert metrics["mmio.host_us_per_fault"] == pytest.approx(2.0 * 1e6 / 8)


def test_corrupted_expected_digest_fails_the_cell(copy_checkout):
    checkout = copy_checkout()
    pins_path = checkout / "benchmarks" / "e2e" / "cells.json"
    pins = json.loads(pins_path.read_text())
    cell_id = "fig8c/Cache-Hit"
    for cell in pins["cells"]:
        if cell["cell_id"] == cell_id:
            cell["state_digest"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    proc = subprocess.run(
        [sys.executable, str(checkout / "benchmarks" / "e2e" / "child.py"), cell_id],
        capture_output=True, text=True, timeout=60, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["raw_setup_s"] = 0.0
    assert report["cells"][0]["status"] == "ok"
    assert not report["cells"][0]["digest_ok"]
    result = run.summarize([cell_id], [report], [0.1], None)
    assert result["metrics"]["failed_frac"] == 1.0


def test_compare_prints_a_verdict_per_workload_and_metric(tmp_path, capsys):
    def record(seed, wall):
        metrics = {"wall_s": wall, "setup_s": 0.2, "peak_rss_mb": 64.0, "failed_frac": 0.0}
        return {"seed": seed, "workloads": {"oom-fault": {"metrics": metrics}}}

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(record(s, 10.0 + 0.01 * s)) + "\n" for s in range(10)))
    b.write_text("".join(json.dumps(record(s, 8.0 + 0.01 * s)) + "\n" for s in range(10)))
    assert run.compare(str(a), str(b), run.load_spec()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("wall_s" in line and line.endswith("improved") for line in lines)
    assert any("peak_rss_mb" in line and line.endswith("unchanged") for line in lines)
    b.write_text(json.dumps(record(3, 8.0)) + "\n")
    assert run.compare(str(a), str(b), run.load_spec()) == 2
