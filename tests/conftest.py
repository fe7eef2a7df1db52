"""Session-wide fixtures shared across the test packages."""

import pytest

from repro.bench.sweep import run_sweep


@pytest.fixture(scope="session")
def bench_manifest(tmp_path_factory):
    """A complete bench-scale manifest (every figure, shrunk grids).

    The sweep runs once per session; tests only read the file, and a
    test that needs an edited manifest edits a copy.
    """
    path = tmp_path_factory.mktemp("bench-sweep") / "manifest.jsonl"
    result = run_sweep(scale="bench", manifest_path=str(path))
    assert result.ok
    return str(path)
