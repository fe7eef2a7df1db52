"""The bench CLI's exit-code contract and --help coverage.

Exit codes: 0 success, 1 failed cells / digest mismatch / stale doc,
2 usage or environment errors.  ``--help`` must document every flag the
CLI has grown (``--trace``, ``--metrics``, ``--faults``, the sweep and
report options) so the contract is discoverable.
"""

import json

import pytest

import repro.bench.cli as cli
import repro.bench.sweep as sweep_mod
from repro.bench.sweep import run_sweep


def _main(argv):
    return cli.main(argv)


def test_help_documents_every_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        _main(["--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for flag in (
        "--trace",
        "--metrics",
        "--faults",
        "--threads",
        "--workloads",
        "--workers",
        "--figures",
        "--scale",
        "--resume",
        "--verify",
        "--manifest",
        "--output",
        "--check",
    ):
        assert flag in text, f"--help must document {flag}"
    assert "sweep" in text and "report" in text


def test_sweep_success_exits_zero(tmp_path, capsys):
    code = _main(
        ["sweep", "--figures", "fig7", "--scale", "bench",
         "--manifest", str(tmp_path / "m.jsonl")]
    )
    assert code == 0
    assert "0 failed" in capsys.readouterr().out


def test_failed_cell_exits_one(tmp_path, monkeypatch, capsys):
    real = sweep_mod._execute_cell

    def sabotage(cell):
        if cell["cell_id"] == "fig7/aquila":
            raise RuntimeError("injected cell failure")
        return real(cell)

    monkeypatch.setattr(sweep_mod, "_execute_cell", sabotage)
    code = _main(
        ["sweep", "--figures", "fig7", "--scale", "bench",
         "--manifest", str(tmp_path / "m.jsonl")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "fig7/aquila" in err and "failed" in err


def test_failed_cell_runs_once_and_is_recorded(tmp_path, monkeypatch):
    """A cell is a pure function of its params: one that raises is not retried."""
    calls = {}
    real = sweep_mod._execute_cell

    def raising(cell):
        calls[cell["cell_id"]] = calls.get(cell["cell_id"], 0) + 1
        if cell["cell_id"] == "fig7/aquila":
            raise RuntimeError("injected cell failure")
        return real(cell)

    monkeypatch.setattr(sweep_mod, "_execute_cell", raising)
    result = run_sweep(
        figures=["fig7"], scale="bench", manifest_path=str(tmp_path / "m.jsonl")
    )
    assert not result.ok and result.failed == ["fig7/aquila"]
    assert set(calls) == {c["cell_id"] for c in result.entries}
    assert all(count == 1 for count in calls.values()), calls
    failed = next(e for e in result.entries if e["cell_id"] == "fig7/aquila")
    assert failed["status"] == "failed"
    assert "injected cell failure" in failed["error"]
    assert "attempts" not in failed
    others = [e for e in result.entries if e["cell_id"] != "fig7/aquila"]
    assert others and all(e["status"] == "ok" for e in others)


def test_digest_mismatch_exits_one(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    assert _main(
        ["sweep", "--figures", "fig7", "--scale", "bench", "--manifest", str(manifest)]
    ) == 0
    capsys.readouterr()

    tampered = []
    for line in manifest.read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") == "cell":
            record["state_digest"] = "0" * 64
        tampered.append(json.dumps(record))
    manifest.write_text("\n".join(tampered) + "\n")

    code = _main(
        ["sweep", "--figures", "fig7", "--scale", "bench",
         "--manifest", str(manifest), "--resume", "--verify"]
    )
    assert code == 1
    assert "determinism violation" in capsys.readouterr().err


def test_verify_without_resume_checks_and_keeps_the_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    argv = ["sweep", "--figures", "fig8c", "--scale", "bench",
            "--manifest", str(manifest)]
    assert _main(argv) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl"], (
        "a sweep writes its manifest and nothing beside it"
    )

    lines = manifest.read_text().splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record.get("kind") == "cell":
            corrupted = record["cell_id"]
            record["state_digest"] = "0" * 64
            lines[index] = json.dumps(record, sort_keys=True)
            break
    manifest.write_text("\n".join(lines) + "\n")

    assert _main(argv + ["--verify"]) == 1
    captured = capsys.readouterr()
    assert f"MISMATCH {corrupted}" in captured.out
    assert corrupted in captured.err
    assert lines[index] in manifest.read_text().splitlines(), (
        "--verify must append to the manifest it checks, not truncate it"
    )

    # The drifted record must not become the reference: a second
    # --verify fails on the same cell, and the index keeps the original.
    assert _main(argv + ["--verify"]) == 1
    assert corrupted in capsys.readouterr().err
    index = sweep_mod.index_manifest(sweep_mod.load_manifest(str(manifest)))
    assert index[corrupted]["state_digest"] == "0" * 64


def test_faults_with_sweep_exits_two(tmp_path, capsys):
    code = _main(
        ["sweep", "--faults", str(tmp_path / "plan.json"),
         "--manifest", str(tmp_path / "m.jsonl")]
    )
    assert code == 2
    assert "--faults" in capsys.readouterr().err


def test_unknown_figure_exits_two(tmp_path, capsys):
    code = _main(
        ["sweep", "--figures", "fig99", "--manifest", str(tmp_path / "m.jsonl")]
    )
    assert code == 2
    assert "fig99" in capsys.readouterr().err


def test_report_without_manifest_exits_two(tmp_path, capsys):
    code = _main(
        ["report", "--manifest", str(tmp_path / "absent.jsonl"),
         "--output", str(tmp_path / "doc.md")]
    )
    assert code == 2


def test_report_check_cycle(bench_manifest, tmp_path, capsys):
    manifest = bench_manifest
    doc = tmp_path / "EXPERIMENTS.md"
    assert _main(
        ["report", "--manifest", str(manifest), "--output", str(doc)]
    ) == 0
    assert _main(
        ["report", "--check", "--manifest", str(manifest), "--output", str(doc)]
    ) == 0
    doc.write_text(doc.read_text() + "\nhand edit\n")
    capsys.readouterr()
    assert _main(
        ["report", "--check", "--manifest", str(manifest), "--output", str(doc)]
    ) == 1
    assert "regenerate with" in capsys.readouterr().err


@pytest.mark.parametrize("repeats", ["0", "-2", "x"])
def test_kernelbench_rejects_repeats_below_one(repeats, tmp_path, capsys):
    from repro.bench import kernelbench

    output = tmp_path / "k.json"
    with pytest.raises(SystemExit) as excinfo:
        kernelbench.main(["--repeats", repeats, "--output", str(output)])
    assert excinfo.value.code == 2
    assert "--repeats" in capsys.readouterr().err
    assert not output.exists()
