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
        "--history",
        "--no-history",
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


def test_failed_cell_is_retried_and_recorded(tmp_path, monkeypatch):
    attempts = {"n": 0}
    real = sweep_mod._execute_cell

    def flaky(cell):
        if cell["cell_id"] == "fig7/aquila":
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient")
        return real(cell)

    monkeypatch.setattr(sweep_mod, "_execute_cell", flaky)
    result = run_sweep(
        figures=["fig7"], scale="bench", manifest_path=str(tmp_path / "m.jsonl")
    )
    assert result.ok and attempts["n"] == 2
    record = next(e for e in result.entries if e["cell_id"] == "fig7/aquila")
    assert record["attempts"] == 2, "the retry count must be in the manifest"


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
            "--manifest", str(manifest), "--no-history"]
    assert _main(argv) == 0
    capsys.readouterr()

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


def test_report_check_cycle(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    doc = tmp_path / "EXPERIMENTS.md"
    run_sweep(scale="bench", manifest_path=str(manifest))
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
