"""The benchmark's workloads: pinned figure cells, grouped into strata.

Every workload is a list of strata.  A stratum is a regular expression
over pinned cell ids (always inside one figure family and one engine)
plus the cells seed 0 runs from it.  Seed 0 runs exactly those named
cells; any other seed draws the same number of cells from each stratum,
without replacement, from ``cells.json``.

Strata are narrower than "family x engine" where an axis of the grid
changes how much work a cell does (fig9 workload E scans ~10x longer
than A-D/F; fig10a's 1- and 32-thread cells cost ~2x the others; fig5's
16-thread cells cost ~1.6x the 4-thread ones; fig10b's 32-thread cells
cost ~10% more time and memory, and its Aquila cells peak ~4% higher
from 8 threads up).  Drawing across such an axis would make the pass
time or memory depend on the seed's luck rather than on the code, so
each seed measures the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
import re
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Pinned figure-scale cells (see ``pin.py``).
PINS_PATH = os.path.join(HERE, "cells.json")

#: name -> [(stratum regex, seed-0 cell ids), ...].  Pass order follows
#: this listing; cells drawn from one stratum keep grid order.  Why each
#: workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, List[Tuple[str, List[str]]]] = {
    # The miss path: ~151k major faults per cell; the slowest sweep family.
    "oom-fault": [
        (r"fig10b/(shared|private)/linux/t(1|2|4|8|16)", ["fig10b/shared/linux/t1"]),
        (r"fig10b/(shared|private)/aquila/t(8|16)", ["fig10b/shared/aquila/t16"]),
    ],
    # Hit runs, fast-forward and the three retire loops; faults only fill the cache.
    "inmem-retire": [
        stratum
        for engine in ("linux", "aquila")
        for stratum in (
            (
                rf"fig10a/(shared|private)/{engine}/t(1|32)",
                [f"fig10a/{sharing}/{engine}/t{threads}"
                 for sharing in ("shared", "private") for threads in (1, 32)],
            ),
            (
                rf"fig10a/(shared|private)/{engine}/t(2|4|8|16)",
                [f"fig10a/shared/{engine}/t16", f"fig10a/private/{engine}/t16"],
            ),
        )
    ]
    + [
        (
            rf"serve/{engine}/(none|static|proportional)/a6",
            [f"serve/{engine}/none/a6", f"serve/{engine}/proportional/a6"],
        )
        for engine in ("aquila", "kmmap", "linux")
    ]
    + [
        (
            rf"cluster/{engine}/s(2|4|4-failover)",
            [f"cluster/{engine}/s4", f"cluster/{engine}/s4-failover"],
        )
        for engine in ("aquila", "kmmap", "linux")
    ],
    # The paper's RocksDB and Kreon applications: writes, inserts, dirty writeback.
    "kv-ycsb": [
        stratum
        for engine in ("kmmap", "aquila")
        for stratum in (
            (rf"fig9/pmem/[ABCDF]/{engine}", [f"fig9/pmem/A/{engine}", f"fig9/pmem/F/{engine}"]),
            (rf"fig9/pmem/E/{engine}", [f"fig9/pmem/E/{engine}"]),
        )
    ]
    + [
        (rf"fig5b/(pmem|nvme)/t4/{mode}", [f"fig5b/pmem/t4/{mode}"])
        for mode in ("direct", "mmap", "aquila")
    ],
    # Ligra BFS over a MADV_RANDOM heap; the dram cell bypasses mmio.
    "graph-bfs": [
        (r"fig6a/linux-(pmem|nvme)/t\d+", ["fig6a/linux-pmem/t1", "fig6a/linux-pmem/t16"]),
        (
            r"fig6a/aquila-(pmem|nvme)/t\d+",
            ["fig6a/aquila-pmem/t1", "fig6a/aquila-pmem/t16", "fig6a/aquila-nvme/t8"],
        ),
        (r"fig6a/dram/t\d+", ["fig6a/dram/t8"]),
    ],
}


def load_pins(path: str = PINS_PATH) -> Dict[str, Dict]:
    """cell id -> pinned cell record, in sweep grid order."""
    with open(path) as handle:
        return {cell["cell_id"]: cell for cell in json.load(handle)["cells"]}


def draw(workload: str, seed: int, pinned_ids: List[str]) -> List[str]:
    """The cell ids one pass of ``workload`` runs for ``seed``.

    ``pinned_ids`` is every pinned cell id in grid order.  The draw is a
    pure function of (workload, seed, pinned ids): a string-seeded
    :class:`random.Random` does not depend on ``PYTHONHASHSEED``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    ids: List[str] = []
    for pattern, slice_ids in WORKLOADS[workload]:
        if seed == 0:
            ids.extend(slice_ids)
            continue
        members = [cid for cid in pinned_ids if re.fullmatch(pattern, cid)]
        picked = set(rng.sample(members, len(slice_ids)))
        ids.extend(cid for cid in members if cid in picked)
    return ids
