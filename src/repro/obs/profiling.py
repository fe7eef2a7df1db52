"""Opt-in per-cell profiling: cProfile plus a sim-cycle hotspot report.

``repro.bench sweep --profile`` wraps every cell in a
:mod:`cProfile` run and derives a **sim-cycle hotspot** list from the
cell's cycle breakdown: the top breakdown categories by simulated
cycles, i.e. where the *simulated* time went, next to where the *wall*
time went.  Both land as content-addressed artifacts (named by the
cell's config digest) next to the manifest, so a slow cell can be
diagnosed from artifacts alone — re-running it is optional.

Profiling is observational: it slows the cell's wall clock but touches
no simulation state, so state and telemetry digests are unchanged.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.obs.events import TOP_CATEGORY_LIMIT, top_categories

T = TypeVar("T")

#: Profile artifact schema version.
PROFILE_SCHEMA = 2

#: How many cProfile rows the hotspot JSON retains.
TOP_FUNCTION_LIMIT = 20


def profile_call(fn: Callable[..., T], *args: Any, **kwargs: Any) -> Tuple[T, cProfile.Profile]:
    """Run ``fn(*args, **kwargs)`` under cProfile; returns (result, profile)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    return result, profiler


def top_functions(profiler: cProfile.Profile, limit: int = TOP_FUNCTION_LIMIT) -> List[Dict]:
    """The hottest functions by internal (self) wall time, descending."""
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, line, name), (
        _primitive_calls,
        total_calls,
        internal_seconds,
        cumulative_seconds,
        _callers,
    ) in stats.stats.items():
        rows.append(
            {
                "function": f"{os.path.basename(filename)}:{line}:{name}",
                "calls": total_calls,
                "self_seconds": round(internal_seconds, 6),
                "cumulative_seconds": round(cumulative_seconds, 6),
            }
        )
    rows.sort(key=lambda row: (-row["self_seconds"], row["function"]))
    return rows[:limit]


def category_hotspots(
    categories: Dict[str, float], limit: int = TOP_CATEGORY_LIMIT
) -> List[Dict]:
    """The hottest breakdown categories by simulated cycles, with shares."""
    total = sum(categories.values()) or 1.0
    return [
        {
            "category": category,
            "cycles": round(cycles, 2),
            "share": round(cycles / total, 4),
        }
        for category, cycles in top_categories(categories, limit)
    ]


def write_profile_artifacts(
    profile_dir: str,
    config_digest: str,
    profiler: cProfile.Profile,
    hotspots: Optional[List[Dict]] = None,
    cell_id: Optional[str] = None,
) -> Dict[str, str]:
    """Write the content-addressed profile artifacts for one cell.

    Two files under ``profile_dir``, both named by the cell's config
    digest (so re-running the same cell overwrites rather than
    duplicates): ``<digest>.pstats`` — the raw cProfile dump, loadable
    with :class:`pstats.Stats` — and ``<digest>.hotspots.json`` — the
    category-cycle hotspots plus the top wall-time functions.  Returns the
    two paths keyed ``pstats`` / ``hotspots``.
    """
    os.makedirs(profile_dir, exist_ok=True)
    pstats_path = os.path.join(profile_dir, f"{config_digest}.pstats")
    profiler.dump_stats(pstats_path)
    hotspots_path = os.path.join(profile_dir, f"{config_digest}.hotspots.json")
    with open(hotspots_path, "w") as handle:
        json.dump(
            {
                "schema": PROFILE_SCHEMA,
                "config_digest": config_digest,
                "cell_id": cell_id,
                "category_hotspots": hotspots or [],
                "top_functions": top_functions(profiler),
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    return {"pstats": pstats_path, "hotspots": hotspots_path}
