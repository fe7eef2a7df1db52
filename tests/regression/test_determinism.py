"""Whole-pipeline determinism: same seed + spec => byte-identical traces.

The repro's core promise is that every run is a pure function of its
configuration.  The unit tiers check this per-component (devices, rngs,
executors); this test checks it end to end through the real CLI: two
in-process ``python -m repro.bench fig8a --trace out.json`` runs must
write byte-identical Chrome-trace JSON — simulated timestamps, span
nesting, cycle attributions, everything.

Byte equality (not structural equality) is deliberate: it also catches
nondeterministic dict ordering, float formatting drift, and any
wall-clock leakage into the trace.
"""

import filecmp

import pytest

from repro import obs
from repro.bench.cli import main


def _reset_world() -> None:
    """Restore every piece of cross-run global state the CLI touches."""
    obs.disable_tracing()


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    _reset_world()
    yield
    _reset_world()


def test_trace_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        _reset_world()
        assert main(["fig8a", "--trace", str(path)]) == 0
        assert path.stat().st_size > 0
    assert filecmp.cmp(paths[0], paths[1], shallow=False), (
        "two runs of 'fig8a --trace' with identical configuration produced "
        "different trace bytes: the simulation leaked nondeterministic state "
        "(thread/file id counters, rng, dict ordering, or wall-clock time)"
    )


def test_trace_byte_identical_with_faults(tmp_path):
    spec = "seed=42,error=0.01,latency=0.02,torn=0.005,max=50"
    paths = [tmp_path / "faulty1.json", tmp_path / "faulty2.json"]
    for path in paths:
        _reset_world()
        assert main(["fig8a", "--trace", str(path), "--faults", spec]) == 0
    assert filecmp.cmp(paths[0], paths[1], shallow=False), (
        "fault injection broke trace determinism: the fault plan must be "
        "a pure function of (seed, spec)"
    )
