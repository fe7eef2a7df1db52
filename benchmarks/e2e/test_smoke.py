"""Smoke runs of run.py on one tiny pinned cell per workload."""

import json
import math
import re
import subprocess
import sys

import pytest

import run
import workloads

#: One ~30 ms fig8 cell per workload name.
TINY = {
    "oom-fault": r"fig8b/(linux|aquila)",
    "inmem-retire": r"fig8a/(linux|aquila)",
    "kv-ycsb": r"fig8c/(DAX|HOST)-pmem",
    "graph-bfs": r"fig8c/(Cache-Hit|SPDK-NVMe)",
}


@pytest.fixture
def tiny(monkeypatch):
    pins = list(workloads.load_pins())
    for name, pattern in TINY.items():
        first = next(cid for cid in pins if re.fullmatch(pattern, cid))
        monkeypatch.setitem(workloads.WORKLOADS, name, [(pattern, [first])])


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_traced_run_of_every_workload(tiny, tmp_path, capsys):
    out = tmp_path / "runs.jsonl"
    assert run.main(["--seed", "1", "--seconds", "0", "--trace", "--out", str(out)]) == 0
    line = _last_json(capsys)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 8
    spec = run.load_spec()
    for name in workloads.WORKLOADS:
        for metric in spec["per_layer"]:
            entry = line["metrics"][f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"] and math.isfinite(entry["value"])
        assert line["metrics"][f"{name}.mmio.self_s"]["value"] > 0
    record = json.loads(out.read_text())
    assert set(record["workloads"]) == set(workloads.WORKLOADS)
    assert all(len(r["setup_samples"]) == run.SETUP_SAMPLES for r in record["workloads"].values())


def test_untraced_run_prints_the_contract_line(tiny, tmp_path, capsys):
    argv = ["--workload", "oom-fault", "--seed", "0", "--seconds", "0", "--trace", "0",
            "--out", str(tmp_path / "runs.jsonl")]
    assert run.main(argv) == 0
    line = _last_json(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    spec = run.load_spec()
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert line["metrics"][metric["name"]]["value"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(copy_checkout):
    checkout = copy_checkout(with_src=False)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "oom-fault", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
