"""Fold a cProfile run into host seconds and calls per ``src/repro`` package.

A function's layer is the ``repro`` package its file lives in.  Self time
of code outside ``repro`` (builtins, numpy, the import machinery) is
charged to the layers that called it, split by the time pstats records
per caller, and followed up the call graph until a ``repro`` caller is
reached.  Time with no ``repro`` caller at all (the benchmark's own
child harness) is charged to ``other``.  ``calls`` counts calls to
functions defined in the layer only.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Dict, Optional, Tuple

#: The ``src/repro`` packages reported as layers, in report order.
LAYERS = (
    "mmio", "cache", "mem", "hw", "devices", "obs", "sim", "workloads",
    "serve", "cluster", "kv", "graph", "bench", "fault", "core", "common",
)

#: Layer for time that reaches no ``repro`` function.
OTHER = "other"

#: Share lost on each hop between two functions outside ``repro``; it
#: keeps the linear system solvable when a cycle has no repro caller.
LEAK = 1e-9

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer of a profiled file, or None for code outside ``src/repro``."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2):
        if parts[i] == "src" and parts[i + 1] == "repro":
            package = parts[i + 2]
            return package if package in LAYERS else OTHER
    return None


def fold(raw: Dict) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` for every layer plus ``other``.

    ``raw`` is ``pstats.Stats(...).stats``: func -> (primitive calls,
    calls, self time, cumulative time, {caller: (pc, calls, tt, ct)}).

    Each function outside ``repro`` passes its time to its callers in
    proportion to the self time pstats records per caller (by call
    count where all of those round to zero).  That is an absorbing
    Markov chain whose absorbing states are the layers.  The call graph
    has cycles (recursion, nested imports), so the absorption shares
    come from one linear solve rather than from walking call paths.
    """
    import numpy as np

    names = LAYERS + (OTHER,)
    column = {name: i for i, name in enumerate(names)}
    layer = {func: layer_of(func[0]) for func in raw}
    outside = [func for func in raw if layer[func] is None]
    row = {func: i for i, func in enumerate(outside)}
    # share = P @ share + B over the functions outside repro.
    P = np.zeros((len(outside), len(outside)))
    B = np.zeros((len(outside), len(names)))
    for func in outside:
        callers = {c: s for c, s in raw[func][4].items() if c in raw}
        weights = {c: s[2] for c, s in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: float(s[1]) for c, s in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            B[row[func], column[OTHER]] = 1.0
            continue
        for caller, weight in weights.items():
            if layer[caller] is None:
                P[row[func], row[caller]] += (1.0 - LEAK) * weight / total
            else:
                B[row[func], column[layer[caller]]] += weight / total
    shares = np.linalg.solve(np.eye(len(outside)) - P, B) if outside else B

    out = {name: {"self_s": 0.0, "calls": 0} for name in names}
    for func, (_prim, calls, self_s, _cum, _callers) in raw.items():
        if layer[func] is not None:
            out[layer[func]]["self_s"] += self_s
            out[layer[func]]["calls"] += calls
            continue
        share = shares[row[func]]
        for name, part in zip(names, share.tolist()):
            out[name]["self_s"] += self_s * part
        # Mass kept by a cycle no repro function calls into ends up here.
        out[OTHER]["self_s"] += self_s * max(0.0, 1.0 - float(share.sum()))
    return out


def count_calls(raw: Dict, package: str, name: str) -> int:
    """Calls to every function called ``name`` defined in ``package``."""
    return sum(
        stats[1]
        for (filename, _line, func), stats in raw.items()
        if func == name and layer_of(filename) == package
    )
