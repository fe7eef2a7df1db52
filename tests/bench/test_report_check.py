"""EXPERIMENTS.md regeneration and the ``report --check`` staleness gate."""

import os

import pytest

from repro.bench.cli import select_cells
from repro.bench.report import (
    check_experiments_md,
    generate_experiments_md,
    load_cell_payloads,
    render_section,
    write_experiments_md,
)
from repro.bench.sweep import run_sweep

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
COMMITTED_DOC = os.path.join(REPO, "EXPERIMENTS.md")
COMMITTED_MANIFEST = os.path.join(REPO, "benchmarks", "MANIFEST_sweep.jsonl")


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    """A complete bench-scale manifest (every figure, shrunk grids)."""
    path = tmp_path_factory.mktemp("report") / "manifest.jsonl"
    result = run_sweep(scale="bench", manifest_path=str(path))
    assert result.ok
    return str(path)


def test_generation_is_deterministic(manifest):
    assert generate_experiments_md(manifest) == generate_experiments_md(manifest)


def test_check_passes_on_fresh_doc(manifest, tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    write_experiments_md(str(doc), manifest)
    assert check_experiments_md(str(doc), manifest) == []


def test_check_catches_stale_table(manifest, tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    write_experiments_md(str(doc), manifest)
    text = doc.read_text()
    assert "2179" in text, "the Cache-Hit anchor should appear in the doc"
    doc.write_text(text.replace("2179", "1234", 1))
    problems = check_experiments_md(str(doc), manifest)
    assert problems, "a stale measured value must fail the check"
    assert any("1234" in line for line in problems)


def test_check_catches_missing_doc(manifest, tmp_path):
    problems = check_experiments_md(str(tmp_path / "absent.md"), manifest)
    assert problems == [f"{tmp_path / 'absent.md'} does not exist"]


def test_generation_names_missing_cells(manifest, tmp_path):
    import json

    pruned = tmp_path / "pruned.jsonl"
    with open(manifest) as src, open(pruned, "w") as dst:
        for line in src:
            record = json.loads(line)
            if record.get("cell_id") != "fig7/aquila":
                dst.write(line)
    with pytest.raises(KeyError, match="fig7/aquila"):
        generate_experiments_md(str(pruned))


@pytest.mark.skipif(
    not (os.path.exists(COMMITTED_DOC) and os.path.exists(COMMITTED_MANIFEST)),
    reason="committed sweep artifacts not present",
)
def test_committed_doc_matches_committed_manifest():
    """The repo's EXPERIMENTS.md must regenerate from the repo's manifest.

    This is the same gate CI runs (``python -m repro.bench report
    --check``); failing here means someone edited the doc by hand or
    changed the claims/generators without regenerating.
    """
    problems = check_experiments_md(COMMITTED_DOC, COMMITTED_MANIFEST)
    assert problems == [], "\n".join(problems[:40])


@pytest.mark.skipif(
    not os.path.exists(COMMITTED_MANIFEST),
    reason="committed sweep manifest not present",
)
def test_generation_depends_on_the_manifest_alone(tmp_path, monkeypatch):
    """No file planted beside the manifest can change the document."""
    import json
    import shutil

    relative = os.path.join("benchmarks", "MANIFEST_sweep.jsonl")
    copy = tmp_path / relative
    copy.parent.mkdir()
    shutil.copyfile(COMMITTED_MANIFEST, copy)
    planted = {
        "kind": "kernel",
        "schema": 1,
        "stage_shares": {"app": 0.25, "device_io": 0.75},
        "share_shift": {"stage": "device_io", "delta": 0.5},
    }
    (copy.parent / "BENCH_history.jsonl").write_text(
        json.dumps(planted, sort_keys=True) + "\n"
    )
    # Same relative path from both working directories, so the
    # provenance line names the manifest identically.
    monkeypatch.chdir(REPO)
    committed = generate_experiments_md(relative)
    monkeypatch.chdir(tmp_path)
    assert generate_experiments_md(relative) == committed


@pytest.mark.parametrize(
    "figure, threads, blocks, header, rows",
    [
        ("fig5a", None, ["Fig 5(a)"], "| device | threads |", 6),
        ("fig5b", [4], ["Fig 5(b)"], "| device | threads |", 2),
        ("fig6b", [16], ["Fig 6(b)"], "| config | 16t |", 5),
        ("fig6a", [1, 8], ["Fig 6(a)", "Fig 6(c)** — 8-thread"], "| config | 1t | 8t |", 5),
        ("fig8b", None, ["Fig 8(b)"], "| engine | steady mean fault |", 2),
        ("fig8c", None, ["Fig 8(c)"], "| path | mean fault |", 5),
    ],
)
def test_sections_render_partial_grids(figure, threads, blocks, header, rows):
    """A section over any CLI selection renders just the blocks and rows present."""
    cells = select_cells(figure, threads=threads)
    committed = load_cell_payloads(COMMITTED_MANIFEST)
    text = render_section(
        cells[0]["runner"], {c["cell_id"]: committed[c["cell_id"]] for c in cells}
    )
    assert text.count("**Fig ") == len(blocks), text
    for block in blocks:
        assert f"**{block}" in text, text
    assert header in text, text
    lines = text.splitlines()
    tables = sum(line.startswith("|---") for line in lines)
    assert sum(line.startswith("|") for line in lines) - 2 * tables == rows, text
