"""Cycle-scoped tracing over the simulation clocks.

A :class:`Span` measures one named region of simulated work on one
thread's :class:`~repro.sim.clock.CycleClock`: its begin/end positions on
the simulated timeline, the cycles charged *directly* inside it (children
excluded), and which clock it ran on.  Spans nest; closing a span adds its
duration to the parent's ``child_cycles`` so exclusive (self) time falls
out without reconstructing the tree.

The process-wide :data:`TRACER` is disabled by default.  When disabled,
``TRACER.span(...)`` returns a shared no-op context manager after a single
branch, so instrumented hot paths cost one call per would-be span.  When
enabled, :class:`~repro.sim.clock.CycleClock` routes every ``charge`` /
``wait_until`` to the innermost open span of that clock (see
``CycleClock._obs_span``), giving per-span category breakdowns for free.

Finished spans land in a bounded ring buffer (oldest dropped first) and
export as Chrome ``trace_event`` JSON, so any run can be opened in
Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.common import units

#: Default ring-buffer capacity (finished spans retained).
DEFAULT_CAPACITY = 1 << 17

#: Chrome-trace process name for the simulated process.  A fixed string
#: (never the OS pid): trace bytes must be identical across runs and
#: across which worker process produced them.
PROCESS_NAME = "repro-sim"


class _NoopSpan:
    """Shared do-nothing context manager for disabled tracing.

    Both hooks are ``"".format``, a C builtin that ignores its arguments
    and returns the falsy ``""``: entering and leaving a disabled span
    runs no Python frame, and an exception raised inside the block still
    propagates.  Disabled spans sit on every fault path, so this is most
    of their cost.
    """

    __slots__ = ()

    __enter__ = __exit__ = staticmethod("".format)


_NOOP = _NoopSpan()


class Span:
    """One traced region on one clock's simulated timeline."""

    __slots__ = (
        "name",
        "track",
        "seq",
        "begin",
        "end",
        "depth",
        "charges",
        "child_cycles",
        "_parent",
        "_prev",
        "_clock",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, clock, track: int) -> None:
        self._tracer = tracer
        self._clock = clock
        self.name = name
        self.track = track
        self.seq = -1          # assigned when the span finishes
        self.begin = clock.now
        self.end = clock.now
        self.depth = 0
        self.charges: Dict[str, float] = {}
        self.child_cycles = 0.0
        self._parent: Optional["Span"] = None
        self._prev: Optional["Span"] = None

    # -- cycle accounting -----------------------------------------------------

    def charge(self, category: str, cycles: float) -> None:
        """Attribute ``cycles`` charged on this span's clock (clock hook)."""
        self.charges[category] = self.charges.get(category, 0.0) + cycles

    @property
    def duration(self) -> float:
        """Inclusive cycles: clock advance from begin to end."""
        return self.end - self.begin

    @property
    def self_cycles(self) -> float:
        """Exclusive cycles: duration minus time spent in child spans."""
        return (self.end - self.begin) - self.child_cycles

    # -- context-manager protocol ---------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, [{self.begin:.0f}, {self.end:.0f}), "
            f"self={self.self_cycles:.0f})"
        )


class Tracer:
    """Collects nested cycle-scoped spans into a bounded ring buffer."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.enabled = False
        self.epoch = 0              # bumped on reset; invalidates clock track ids
        self.dropped = 0            # finished spans evicted by the ring bound
        self.total_finished = 0     # monotonically increasing span sequence
        self.noop_requests = 0      # span() calls taken while disabled
        self._ring: "deque[Span]" = deque(maxlen=capacity)
        self._tracks: List[str] = []
        self._current: Optional[Span] = None

    # -- control ---------------------------------------------------------------

    def enable(self) -> None:
        """Start recording spans (charges route to open spans)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording.  Already-collected spans are kept."""
        self.enabled = False

    def reset(self, capacity: Optional[int] = None) -> None:
        """Drop all collected spans and track registrations.

        Must not be called while spans are open (open spans would leak
        stale parent links); callers reset between runs, not inside them.
        """
        if capacity is not None:
            if capacity <= 0:
                raise ValueError("capacity must be positive")
            self.capacity = capacity
        self.epoch += 1
        self.dropped = 0
        self.total_finished = 0
        self._ring = deque(maxlen=self.capacity)
        self._tracks = []
        self._current = None

    @contextmanager
    def isolated(self, enable: bool = True, capacity: Optional[int] = None):
        """A scope with a fresh, private tracer state; prior state restored.

        Used by sweep workers to give every cell its own span stream: on
        entry the ring, tracks and counters are saved and replaced by
        empty ones (and the tracer enabled per ``enable``); on exit the
        saved state — including the enabled flag — comes back exactly,
        so a reused pooled process cannot leak spans across cells and an
        in-process orchestrator keeps its own spans.  The epoch bump on
        both edges invalidates clock track ids minted inside the scope.
        """
        saved = (
            self.enabled,
            self.capacity,
            self.dropped,
            self.total_finished,
            self.noop_requests,
            self._ring,
            self._tracks,
            self._current,
        )
        self.reset(capacity=capacity)
        self.enabled = enable
        try:
            yield self
        finally:
            (
                self.enabled,
                self.capacity,
                self.dropped,
                self.total_finished,
                self.noop_requests,
                self._ring,
                self._tracks,
                self._current,
            ) = saved
            self.epoch += 1

    # -- span lifecycle ----------------------------------------------------------

    def span(self, name: str, clock=None):
        """Open a span on ``clock``; use as ``with tracer.span(...):``.

        ``clock`` may be omitted inside an already-open span, in which case
        the new span nests on the enclosing span's clock (the simulator
        executes one operation at a time, so the innermost open span is
        unambiguous).
        """
        if not self.enabled:
            self.noop_requests += 1
            return _NOOP
        if clock is None:
            if self._current is None:
                raise ValueError(
                    f"span {name!r} needs an explicit clock (no enclosing span)"
                )
            clock = self._current._clock
        track = clock._obs_track
        if track is None or track[0] != self.epoch:
            index = len(self._tracks)
            self._tracks.append(getattr(clock, "owner_name", "") or f"clock-{index}")
            track = (self.epoch, index)
            clock._obs_track = track
        span = Span(self, name, clock, track[1])
        parent = clock._obs_span
        span._parent = parent
        span.depth = 0 if parent is None else parent.depth + 1
        span._prev = self._current
        clock._obs_span = span
        self._current = span
        return span

    def _close(self, span: Span) -> None:
        clock = span._clock
        span.end = clock.now
        clock._obs_span = span._parent
        self._current = span._prev
        if span._parent is not None:
            span._parent.child_cycles += span.end - span.begin
        span.seq = self.total_finished
        self.total_finished += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(span)

    # -- retrieval ---------------------------------------------------------------

    def mark(self) -> int:
        """A position in the span sequence, for :meth:`finished_since`."""
        return self.total_finished

    def finished_spans(self) -> List[Span]:
        """All retained finished spans, oldest first."""
        return list(self._ring)

    def finished_since(self, mark: int) -> List[Span]:
        """Retained spans finished at or after ``mark`` (see :meth:`mark`)."""
        return [span for span in self._ring if span.seq >= mark]

    def track_names(self) -> List[str]:
        """Registered track (simulated-thread) names, by track id."""
        return list(self._tracks)

    # -- Chrome trace-event export -------------------------------------------------

    def iter_chrome_events(self) -> Iterator[Dict[str, Any]]:
        """Yield Chrome ``trace_event`` objects one at a time.

        Metadata first — a ``process_name`` event naming the simulated
        process and one ``thread_name`` per registered track — then one
        ``ph: "X"`` complete event per retained span.  Timestamps are
        simulated microseconds (cycles at 2.4 GHz), one ``tid`` per
        simulated thread, with the span's cycle totals and per-category
        charges in ``args``.  Streaming the ring this way lets the
        export run at O(1) extra memory however many spans are retained.
        """
        yield {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": PROCESS_NAME},
        }
        for tid, name in enumerate(self._tracks):
            yield {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": name},
            }
        for span in self._ring:
            yield {
                "name": span.name,
                "cat": "sim",
                "ph": "X",
                "pid": 0,
                "tid": span.track,
                "ts": round(units.cycles_to_us(span.begin), 6),
                "dur": round(units.cycles_to_us(span.duration), 6),
                "args": {
                    "cycles": round(span.duration, 2),
                    "self_cycles": round(span.self_cycles, 2),
                    "charges": {
                        category: round(cycles, 2)
                        for category, cycles in sorted(span.charges.items())
                    },
                },
            }

    def _other_data(self) -> Dict[str, Any]:
        return {
            "clock": f"simulated cycles at {units.CPU_FREQ_HZ / 1e9:.1f} GHz",
            "dropped_spans": self.dropped,
            "total_spans": self.total_finished,
        }

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The retained spans as a Chrome ``trace_event`` JSON object.

        Materializes :meth:`iter_chrome_events`; prefer
        :meth:`write_chrome_trace` for large rings, which streams events
        to disk instead of buffering the whole trace.
        """
        return {
            "traceEvents": list(self.iter_chrome_events()),
            "displayTimeUnit": "ns",
            "otherData": self._other_data(),
        }

    def write_chrome_trace(self, path: str) -> int:
        """Stream the Chrome trace JSON to ``path``; returns event count.

        Events are serialized one at a time straight to the file, so a
        long traced run (a sweep cell with ``--trace``) exports with
        bounded RSS — the whole-trace JSON string is never built in
        memory.
        """
        count = 0
        with open(path, "w") as handle:
            handle.write('{"traceEvents":[')
            for event in self.iter_chrome_events():
                if count:
                    handle.write(",")
                json.dump(event, handle, separators=(",", ":"))
                count += 1
            handle.write('],"displayTimeUnit":"ns","otherData":')
            json.dump(self._other_data(), handle, separators=(",", ":"))
            handle.write("}")
        return count


#: The process-wide tracer every instrumented path reports to.
TRACER = Tracer()
