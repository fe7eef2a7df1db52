"""Quartile spreads and two-commit verdicts.

The comparison rule (README "Comparing two commits"): runs of the parent
(A) and the change (B) are paired in order.  B *improved* a metric only
when it wins at least 9 of every 10 pairs over at least 10 pairs, and
the medians differ by more than A's own quartile spread.  B *regressed*
when its median is worse than A's by more than the metric's bound.
Where A's spread is wider than the bound the answer is *unresolved*,
unless every B run reads better than every A run.
"""

from __future__ import annotations

import statistics
from statistics import median
from typing import Dict, List, Sequence, Tuple

#: Pairs needed before a gain may be claimed, and the share B must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def verdict(a: List[float], b: List[float], bound: float, lower_is_better: bool = True) -> Dict:
    """Compare paired samples ``a`` (parent) and ``b`` (change) of one metric."""
    if len(a) != len(b) or not a:
        raise ValueError("verdict needs equally many paired samples on both sides")
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = median(a), median(b)
    q1_a, q3_a = quartiles(a)
    wins_b = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    wins_a = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    worse_by = sign * (med_b - med_a) / med_a
    if (
        len(a) >= MIN_PAIRS
        and wins_b >= WIN_SHARE * len(a)
        and sign * (med_a - med_b) > q3_a - q1_a
    ):
        outcome = "improved"
    elif (q3_a - q1_a) / med_a > bound and not all(
        sign * (y - x) < 0 for x in a for y in b
    ):
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {
        "pairs": len(a),
        "median_a": med_a,
        "median_b": med_b,
        "quartiles_a": quartiles(a),
        "quartiles_b": quartiles(b),
        "wins_a": wins_a,
        "wins_b": wins_b,
        "worse_by": worse_by,
        "verdict": outcome,
    }
