"""Folding a profile by package, including builtins charged to their callers."""

import cProfile
import pstats

import pytest

from layerfold import LAYERS, OTHER, count_calls, fold, layer_of

MMIO = ("/x/src/repro/mmio/engine.py", 10, "_fault")
OBS = ("/x/src/repro/obs/trace.py", 5, "span")
SIM = ("/x/src/repro/sim/executor.py", 7, "run")
BUILTIN = ("~", 0, "<built-in method builtins.len>")
HELPER = ("/usr/lib/python3/heapq.py", 3, "heappush")
HARNESS = ("/x/benchmarks/e2e/child.py", 1, "main")


def test_layer_of():
    assert layer_of("/x/src/repro/mmio/engine.py") == "mmio"
    assert layer_of("/x/src/repro/newpkg/mod.py") == OTHER
    assert layer_of("/x/src/repro/__init__.py") == OTHER
    assert layer_of("/usr/lib/python3/heapq.py") is None
    assert layer_of("~") is None


def test_repro_functions_keep_their_own_time_and_calls():
    raw = {
        MMIO: (4, 4, 2.0, 3.0, {SIM: (4, 4, 2.0, 3.0)}),
        SIM: (1, 1, 1.0, 4.0, {}),
    }
    out = fold(raw)
    assert out["mmio"] == {"self_s": 2.0, "calls": 4}
    assert out["sim"] == {"self_s": 1.0, "calls": 1}
    assert set(out) == set(LAYERS) | {OTHER}


def test_builtin_is_split_between_callers_by_per_caller_time():
    raw = {
        MMIO: (1, 1, 0.0, 1.0, {}),
        OBS: (1, 1, 0.0, 1.0, {}),
        BUILTIN: (10, 10, 4.0, 4.0, {MMIO: (3, 3, 3.0, 3.0), OBS: (7, 7, 1.0, 1.0)}),
    }
    out = fold(raw)
    assert out["mmio"]["self_s"] == pytest.approx(3.0)
    assert out["obs"]["self_s"] == pytest.approx(1.0)
    assert out["mmio"]["calls"] == 1 and out["obs"]["calls"] == 1


def test_time_climbs_non_repro_callers_to_the_first_repro_one():
    raw = {
        SIM: (1, 1, 0.0, 5.0, {}),
        HELPER: (3, 3, 1.0, 5.0, {SIM: (2, 2, 0.5, 5.0), BUILTIN: (1, 1, 0.5, 0.5)}),
        BUILTIN: (2, 2, 4.0, 4.0, {HELPER: (2, 2, 4.0, 4.0)}),
    }
    out = fold(raw)
    # helper <-> builtin form a cycle whose only way out is sim.
    assert out["sim"]["self_s"] == pytest.approx(5.0)
    assert out["sim"]["calls"] == 1
    assert out[OTHER]["self_s"] == pytest.approx(0.0, abs=1e-6)


def test_zero_time_callers_split_by_call_count():
    raw = {
        MMIO: (1, 1, 0.0, 1.0, {}),
        OBS: (1, 1, 0.0, 1.0, {}),
        BUILTIN: (4, 4, 2.0, 2.0, {MMIO: (1, 1, 0.0, 0.0), OBS: (3, 3, 0.0, 0.0)}),
    }
    out = fold(raw)
    assert out["mmio"]["self_s"] == pytest.approx(0.5)
    assert out["obs"]["self_s"] == pytest.approx(1.5)


def test_time_without_a_repro_caller_is_other():
    raw = {
        HARNESS: (1, 1, 0.5, 1.0, {}),
        BUILTIN: (1, 1, 0.25, 0.25, {HARNESS: (1, 1, 0.25, 0.25)}),
    }
    assert fold(raw)[OTHER]["self_s"] == pytest.approx(0.75)


def test_real_profile_folds_without_losing_time():
    from repro.sim.conformance import hash_digest

    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(200):
        hash_digest({"i": i, "values": list(range(50))})
    profiler.disable()
    raw = pstats.Stats(profiler).stats
    out = fold(raw)
    total = sum(stats[2] for stats in raw.values())
    assert sum(v["self_s"] for v in out.values()) == pytest.approx(total)
    assert out["sim"]["calls"] >= 200
    assert out["sim"]["self_s"] > 0


def test_count_calls_matches_name_and_package():
    raw = {
        MMIO: (4, 4, 2.0, 3.0, {}),
        ("/x/src/repro/mmio/aquila.py", 3, "_fault"): (2, 2, 1.0, 1.0, {}),
        ("/x/src/repro/cache/base.py", 3, "_fault"): (9, 9, 1.0, 1.0, {}),
    }
    assert count_calls(raw, "mmio", "_fault") == 6
