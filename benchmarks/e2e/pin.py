"""Regenerate ``cells.json``: every figure-scale cell with its expected digest.

Run from the repository root::

    python3 benchmarks/e2e/pin.py

Each pinned cell carries the id, runner, params and config digest that
``repro.bench.sweep.enumerate_cells("figure")`` produces, plus the state
digest recorded for that config in ``benchmarks/MANIFEST_sweep.jsonl``.
The benchmark runs the *pinned* params, so a change to the sweep grid
cannot silently change what it measures; ``test_pins.py`` fails until
the pins are regenerated on purpose.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import PINS_PATH

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MANIFEST = os.path.join(ROOT, "benchmarks", "MANIFEST_sweep.jsonl")


def pinned_cells(manifest_path: str = MANIFEST):
    """Live figure cells joined with their manifest state digests."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.bench.sweep import enumerate_cells, index_manifest, load_manifest

    index = index_manifest(load_manifest(manifest_path))
    cells = []
    for cell in enumerate_cells(scale="figure"):
        entry = index.get(cell["cell_id"])
        if entry is None or entry["config_digest"] != cell["config_digest"]:
            raise SystemExit(
                f"{cell['cell_id']}: no manifest record for its current config; "
                "re-run the sweep before pinning"
            )
        cells.append(
            {
                "cell_id": cell["cell_id"],
                "figure": cell["figure"],
                "runner": cell["runner"],
                "params": cell["params"],
                "config_digest": cell["config_digest"],
                "state_digest": entry["state_digest"],
            }
        )
    return cells


def main() -> int:
    cells = pinned_cells()
    with open(PINS_PATH, "w") as handle:
        json.dump({"schema": 1, "scale": "figure", "cells": cells}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(cells)} cells to {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
