"""Analytic fast-forward of quiescent phases: vectorized closed forms.

The epoch-batched executor (``repro.sim.executor``) already retires runs
of consecutive pure cache hits in one step, but it still *executes* every
hit in a Python loop.  This module provides the closed forms that let
``MmioEngine.retire`` retire a whole window of all-hit accesses
analytically — the hybrid analytic/discrete-event idea of LANL's PPT
processor models, applied to the mmio access protocol.

The contract mirrors the batching invariant one level up: the analytic
path must be **bit-identical** to stepping the same accesses through the
hit loop.  That holds because, inside a window proven to be all
hits with no TLB eviction and no pending interference:

* every access charges the same integer cycle counts (6-cycle hit, plus
  a 100-cycle walk on each page's first TLB miss), and sums of integers
  below 2**53 are exact under any association, so one bulk float add
  equals the stepped adds;
* the per-access latency of access *i* is a pure function of whether it
  is the first occurrence of a not-yet-resident page — computable for
  the whole window from a first-occurrence profile;
* the final TLB recency order is "all untouched entries, then touched
  pages by last occurrence" — computable from a last-occurrence profile.

What the closed forms must know about a window is therefore only the
**first and last occurrence position of every page**, which
:func:`window_profile` computes with unbuffered ``ufunc.at`` scatter
reductions (deterministic under duplicate indices, unlike fancy-index
assignment, and ~40x faster than an ``np.unique`` formulation at the
headline cell's window sizes).

Safety gates (the certificate refinement): the engine *cuts* the window
at the first write, the first out-of-bounds page, the first access whose
PTE is missing, and the first access that would overflow the TLB, then
re-profiles until the cuts are stable — so an access is only ever
retired analytically if the hit loop would have retired it identically.
Anything after the cut falls back to the loop.  A window is only
attempted at all when the executor granted an *unbounded* horizon (the
quiescence certificate ``run_ahead_unbounded_ok``, or a solo thread) and
:func:`expected_hit_run_length` — the analytic miss-rate model that
extends the certificate to steady-state eviction regimes — predicts the
profiling cost will amortize.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Minimum accesses an analytic window must retire to amortize its numpy
#: setup; shorter prospective runs fall through to the Python hit loop.
MIN_ANALYTIC_RUN = 64

#: Analytic windows are clipped to this many accesses per ``retire``
#: call so every per-call scan (write cut, bounds cut, profile) is O(1)
#: in the *remaining plan length* — a miss-heavy cell that calls and
#: rejects on every op must never go quadratic.
MAX_ANALYTIC_WINDOW = 1 << 17

#: Upper bound on mapping size (in pages) for the dense first/last
#: occurrence profile arrays; larger mappings fall back to the loop.
MAX_ANALYTIC_PAGES = 1 << 22


class AccessPlan(tuple):
    """A thread's precomputed access plan over int64/bool arrays.

    Unpacks as the 3-tuple ``(pages, in_page_offsets, is_write_flags)``
    that ``MmioEngine.retire`` and its hit loop index op by op.  Each
    entry is a ``memoryview`` of a contiguous array, so indexing yields
    plain Python ints and bools, never numpy scalars (which must not
    leak into clocks, dict keys or digested state).  The arrays behind
    the views stay reachable as ``np_pages``, ``np_offsets`` and
    ``np_writes``: the analytic fast-forward profiles windows of them,
    and callers re-slice them into sub-plans.  Every executor mode runs
    the same plan; only the engine decides whether to read the arrays.
    """

    def __new__(cls, pages, offsets, writes):
        """Plan over ``pages``/``offsets`` (as int64) and ``writes`` (as bool)."""
        np_pages = np.ascontiguousarray(pages, dtype=np.int64)
        np_offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        np_writes = np.ascontiguousarray(writes, dtype=bool)
        plan = super().__new__(
            cls, (memoryview(np_pages), memoryview(np_offsets), memoryview(np_writes))
        )
        plan.np_pages = np_pages
        plan.np_offsets = np_offsets
        plan.np_writes = np_writes
        return plan


def write_cut(np_writes, index: int, limit: int) -> int:
    """First write position in ``[index, limit)``, or ``limit`` if none.

    The analytic path handles pure loads only (stores mutate frame bytes
    and PTE dirty protocol state per access), so the window is cut just
    before the first write and the hit loop takes over there.
    """
    window = np_writes[index:limit]
    if not window.any():
        return limit
    return index + int(window.argmax())


def window_profile(window, num_pages: int) -> Tuple:
    """First/last occurrence profile of a page-index window.

    Returns ``(touched, first, last)``: ``touched`` is the ascending
    int64 array of distinct pages occurring in ``window``; ``first[p]``
    / ``last[p]`` are the window-relative positions of page ``p``'s
    first / last occurrence (``len(window)`` / ``-1`` for untouched
    pages).  Uses ``np.minimum.at`` / ``np.maximum.at``, which are
    documented to apply unbuffered (every duplicate index participates),
    so the result is deterministic — fancy-index assignment is not.
    """
    n = int(window.shape[0])
    positions = np.arange(n, dtype=np.int64)
    first = np.full(num_pages, n, dtype=np.int64)
    np.minimum.at(first, window, positions)
    last = np.full(num_pages, -1, dtype=np.int64)
    np.maximum.at(last, window, positions)
    touched = np.flatnonzero(last >= 0)
    return touched, first, last


def expected_hit_run_length(mapped_pages: int, capacity_pages: int) -> float:
    """Expected consecutive-hit run length under uniform random access.

    The analytic miss-rate model that extends the quiescence certificate
    to steady-state eviction regimes: with ``mapped_pages`` uniformly
    accessed pages competing for ``capacity_pages`` cache frames, the
    steady-state per-access miss probability is ``1 - capacity/mapped``
    and hit runs are geometric with expectation ``1 / miss_rate``.  An
    in-memory working set (``mapped <= capacity``) never misses after
    warmup — the expectation is infinite, which is exactly the regime
    where unbounded analytic windows pay off.  Out-of-memory cells
    (paper Figure 10(b)) get short runs, telling the engine to skip the
    per-call analytic setup and leave them to the hit loop and the fault
    protocol.
    """
    if capacity_pages <= 0:
        return 0.0
    if mapped_pages <= capacity_pages:
        return math.inf
    return 1.0 / (1.0 - capacity_pages / mapped_pages)
