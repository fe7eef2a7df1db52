"""The experiment CLI: figure commands run the sweep's cells.

A figure command must compute exactly the payloads the committed sweep
manifest records for the same cells (each cell runs hermetically, so
nothing that ran before it in the process can shift its op streams), and
print them with EXPERIMENTS.md's section renderer.
"""

import json
import os

import pytest

from repro.bench.cli import build_parser, figure_names, figure_payloads, main, select_cells
from repro.bench.report import load_cell_payloads, render_section

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MANIFEST = load_cell_payloads(os.path.join(REPO, "benchmarks", "MANIFEST_sweep.jsonl"))


def _table_rows(text):
    """Body rows of every markdown table in ``text``."""
    rows, body = [], False
    for line in text.splitlines():
        if line.startswith("|---"):
            body = True
        elif line.startswith("|"):
            if body:
                rows.append(line)
        else:
            body = False
    return rows


def _assert_manifest_rows(out, cells):
    """``out`` renders exactly the manifest's rows for ``cells``."""
    expected = _table_rows(
        render_section(
            cells[0]["runner"], {c["cell_id"]: MANIFEST[c["cell_id"]] for c in cells}
        )
    )
    printed = _table_rows(out)
    assert len(printed) == len(expected), out
    for row in expected:
        assert row in printed, f"missing manifest row {row!r} in:\n{out}"


class TestParser:
    def test_all_experiments_listed(self):
        parser = build_parser()
        for name in figure_names():
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_threads_option(self):
        args = build_parser().parse_args(["fig10a", "--threads", "1", "4"])
        assert args.threads == [1, 4]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in figure_names():
            assert name in out

    def test_fig8a_runs(self, capsys):
        assert main(["fig8a"]) == 0
        _assert_manifest_rows(capsys.readouterr().out, select_cells("fig8a"))

    def test_fig10_with_small_sweep(self, capsys):
        assert main(["fig10a", "--threads", "1", "2"]) == 0
        _assert_manifest_rows(
            capsys.readouterr().out, select_cells("fig10a", threads=[1, 2])
        )

    def test_fig9_single_workload(self, capsys):
        assert main(["fig9", "--workloads", "C"]) == 0
        _assert_manifest_rows(
            capsys.readouterr().out, select_cells("fig9", workloads=["C"])
        )


@pytest.mark.parametrize(
    "figure, threads", [("fig8a", None), ("fig10a", [1])], ids=["fig8a", "fig10a-t1"]
)
def test_payloads_equal_the_manifest(figure, threads):
    """A figure command's payloads are the sweep's, cell by cell.

    Before cells ran hermetically, ``fig10a --threads 1`` ran the Aquila
    cell after the Linux one without resetting thread ids, so its op
    streams were seeded differently and ``fig10a/shared/aquila/t1`` read
    30,743,120 ops/s against the manifest's 30,852,633.
    """
    cells = select_cells(figure, threads=threads)
    assert cells
    payloads = json.loads(json.dumps(figure_payloads(cells)))
    for cell in cells:
        assert payloads[cell["cell_id"]] == MANIFEST[cell["cell_id"]], cell["cell_id"]


class TestRejectedFilters:
    """Options that would select nothing exit 2 and name the valid values."""

    def test_threads_off_the_grid(self, capsys):
        assert main(["fig10a", "--threads", "1", "3"]) == 2
        err = capsys.readouterr().err
        assert "--threads 3" in err and "1 2 4 8 16 32" in err

    @pytest.mark.parametrize("figure", ["fig7", "fig8a", "fig8b", "fig8c"])
    def test_threads_without_a_thread_axis(self, figure, capsys):
        assert main([figure, "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{figure} has no --threads axis" in err
        assert "fig5a, fig5b, fig6a, fig6b, fig10a, fig10b" in err

    @pytest.mark.parametrize("figure", ["fig5a", "fig8a", "fig10a"])
    def test_workloads_off_fig9(self, figure, capsys):
        assert main([figure, "--workloads", "C"]) == 2
        assert "--workloads applies to: fig9" in capsys.readouterr().err

    def test_workloads_off_the_grid(self, capsys):
        assert main(["fig9", "--workloads", "C", "G"]) == 2
        err = capsys.readouterr().err
        assert "--workloads G" in err and "A B C D E F" in err
