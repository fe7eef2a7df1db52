"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper and prints
the same rows/series the paper reports (run with ``-s`` to see them).
Shapes — who wins, by roughly what factor, where crossovers fall — are
asserted; absolute numbers are simulated cycles at 2.4 GHz.

A figure's cells are the sweep's: :func:`figure` runs the cells
``python -m repro.bench <figure>`` runs, each hermetically, so the
payloads the suites assert on are the ones EXPERIMENTS.md reports.
"""

import pytest

from repro.bench.cli import figure_payloads, select_cells


@pytest.fixture
def once(benchmark):
    """Run the experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations; repeated rounds would
    only re-measure Python overhead.
    """

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture
def figure(once):
    """``figure(name, threads=None, workloads=None)`` -> cell id -> payload.

    Selects the figure-scale sweep cells as the CLI's ``--threads`` /
    ``--workloads`` do and runs them once, under pytest-benchmark timing.
    """

    def _run(name, threads=None, workloads=None):
        return once(figure_payloads, select_cells(name, threads, workloads))

    return _run
