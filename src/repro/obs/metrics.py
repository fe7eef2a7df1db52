"""Process-wide named metrics: counters, histograms, pull-probes.

The :data:`METRICS` registry is disabled by default; every mutator
(``inc``/``observe``) returns after one branch when disabled, so
instrumented hot paths stay cheap.  Two styles of metric coexist:

* **push** primitives (:class:`Counter`, :class:`Histogram`) for new
  event streams;
* **pull probes** (:meth:`MetricsRegistry.bind_object`) exposing the
  attribute counters components already keep (engine fault counts, cache
  hits, device totals), sampled only at :meth:`MetricsRegistry.snapshot`
  time — zero hot-path cost.

Components auto-bind themselves at construction; binding is a no-op
unless the registry is enabled, so enable (and usually :meth:`reset`)
*before* building the stack you want observed.  The process registry
also keeps the lock timelines' running totals (:class:`LockTotals`),
scoped like every other metric.

Metric names are dotted lowercase paths (``engine.aquila.faults.major``);
label-like variants go in the path, and duplicate prefixes from repeated
construction get a ``#N`` suffix so snapshots stay unambiguous.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

#: Counters wrap like 64-bit hardware counters rather than growing
#: unboundedly (and so that overflow semantics are defined and testable).
COUNTER_WRAP = 1 << 64

#: Default latency-histogram bucket bounds, in cycles (512 .. ~8M).
DEFAULT_CYCLE_BUCKETS = tuple(float(1 << i) for i in range(9, 24))


class Counter:
    """A monotonically increasing count (wraps at 2**64)."""

    __slots__ = ("name", "help", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry", help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0
        self._registry = registry

    def inc(self, n: Union[int, float] = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if not self._registry.enabled:
            return
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        value = self.value + n
        self.value = value - COUNTER_WRAP if value >= COUNTER_WRAP else value

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0


class Histogram:
    """Fixed-bucket distribution of observed values.

    ``buckets`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the overflow slot.
    ``counts`` therefore has ``len(buckets) + 1`` entries.
    """

    __slots__ = ("name", "help", "buckets", "counts", "count", "sum", "_registry")

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_CYCLE_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = [float(b) for b in buckets]
        if not bounds or sorted(bounds) != bounds:
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.help = help
        self.buckets = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self._registry = registry

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not self._registry.enabled:
            return
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def observe_many(self, values) -> None:
        """Record a batch of observations."""
        for value in values:
            self.observe(value)

    def reset(self) -> None:
        """Zero all buckets."""
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def mean(self) -> Optional[float]:
        """Mean of all observations, or ``None`` on an empty histogram."""
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        The estimate interpolates linearly inside the bucket holding the
        target rank (between the previous bound — or 0 for the first
        bucket — and the bucket's own bound), which is the resolution a
        fixed-bucket histogram has.  Edge cases are defined rather than
        surprising: an empty histogram returns ``None``; a single sample
        returns its bucket estimate for every ``q`` (so p50 == p999); a
        rank landing in the overflow bucket returns the last finite
        bound, the only honest lower bound available.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return None
        rank = max(1.0, q * self.count)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            before = cumulative
            cumulative += bucket_count
            if cumulative + 1e-12 >= rank:
                if index >= len(self.buckets):   # overflow slot
                    return self.buckets[-1]
                low = self.buckets[index - 1] if index > 0 else 0.0
                high = self.buckets[index]
                fraction = (rank - before) / bucket_count
                return low + fraction * (high - low)
        return self.buckets[-1]

    def summary(self) -> Dict[str, Optional[float]]:
        """Count, sum, mean and the standard tail quantile estimates."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot form: bounds, per-bucket counts, count and sum."""
        return {
            "buckets": list(zip(self.buckets, self.counts[:-1])),
            "overflow": self.counts[-1],
            "count": self.count,
            "sum": self.sum,
        }


class LockTotals:
    """Lock-contention running totals of one metrics scope.

    Every lock timeline adds its acquisitions, contended acquisitions and
    wait cycles here as they happen, so ``wait_cycles`` is one running
    sum in event order; per-lock numbers stay on the timelines.
    """

    __slots__ = ("acquisitions", "contended", "wait_cycles")

    def __init__(self) -> None:
        self.acquisitions = 0
        self.contended = 0
        self.wait_cycles = 0.0


class MetricsRegistry:
    """Name -> metric store with pull-probe collection.

    The registry also keeps a :class:`LockTotals` as ``locks``, restarted
    by :meth:`reset` and :meth:`isolated` and reported as ``locks.*``
    while enabled.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._metrics: Dict[str, Union[Counter, Histogram]] = {}
        self._probes: Dict[str, Callable[[], float]] = {}
        self._prefixes: Dict[str, int] = {}
        self._clocks: List[Any] = []
        self.locks = LockTotals()

    # -- control ---------------------------------------------------------------

    def enable(self) -> None:
        """Turn the registry on (mutators and bindings become live)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn the registry off (mutators and bindings become no-ops)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every metric, probe and clock, zero the lock totals (fresh run)."""
        self._metrics = {}
        self._probes = {}
        self._prefixes = {}
        self._clocks = []
        self.locks = LockTotals()

    @contextmanager
    def isolated(self, enable: bool = True):
        """A scope with a fresh, private registry state; prior state restored.

        Sweep workers wrap each cell in this so a reused pooled process
        starts every cell with an empty registry and zero lock totals (no
        counter leakage across cells) while the caller's counters —
        created in the outer state — survive untouched in serial mode.
        """
        saved = (self.enabled, self._metrics, self._probes, self._prefixes,
                 self._clocks, self.locks)
        self.enabled = enable
        self._metrics, self._probes, self._prefixes, self._clocks = {}, {}, {}, []
        self.locks = LockTotals()
        try:
            yield self
        finally:
            (self.enabled, self._metrics, self._probes, self._prefixes,
             self._clocks, self.locks) = saved

    # -- push metrics ------------------------------------------------------------

    def _get_or_create(self, name: str, kind, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, self, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter, help=help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_CYCLE_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, Histogram, buckets=buckets, help=help)

    # -- pull probes -------------------------------------------------------------

    def unique_prefix(self, prefix: str) -> str:
        """``prefix``, suffixed ``#N`` if already claimed by a bind."""
        count = self._prefixes.get(prefix, 0)
        self._prefixes[prefix] = count + 1
        return prefix if count == 0 else f"{prefix}#{count}"

    def register_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a zero-argument callable sampled at snapshot time."""
        if not self.enabled:
            return
        self._probes[name] = fn

    def bind_object(
        self,
        prefix: str,
        obj: Any,
        fields: Dict[str, Union[str, Callable[[Any], float]]],
    ) -> None:
        """Expose attributes (or derivations) of ``obj`` as pull metrics.

        ``fields`` maps metric suffix -> attribute name or ``fn(obj)``.
        A no-op while the registry is disabled, so constructors can call
        this unconditionally.
        """
        if not self.enabled:
            return
        prefix = self.unique_prefix(prefix)
        for suffix, spec in fields.items():
            if callable(spec):
                fn = (lambda obj=obj, spec=spec: spec(obj))
            else:
                fn = (lambda obj=obj, spec=spec: getattr(obj, spec))
            self._probes[f"{prefix}.{suffix}"] = fn

    def register_clock(self, clock: Any) -> None:
        """Track a simulated thread's clock for breakdown-derived telemetry.

        Called once per clock at construction; nothing is sampled until
        snapshot time, so the clock's charge path stays untouched.
        """
        if self.enabled:
            self._clocks.append(clock)

    def clocks(self) -> List[Any]:
        """Every clock registered in the current scope, in creation order."""
        return list(self._clocks)

    # -- collection ---------------------------------------------------------------

    def histograms(self) -> Dict[str, Histogram]:
        """Name -> :class:`Histogram` for every registered histogram."""
        return {
            name: metric
            for name, metric in self._metrics.items()
            if isinstance(metric, Histogram)
        }

    def snapshot(self) -> Dict[str, Any]:
        """Every metric's current value, sorted by name.

        Counters and probes yield numbers; histograms yield the
        :meth:`Histogram.as_dict` form.  A probe that raises (e.g. its
        source was torn down) reports ``None`` rather than failing the
        whole snapshot.
        """
        out: Dict[str, Any] = {}
        for name, metric in self._metrics.items():
            out[name] = metric.as_dict() if isinstance(metric, Histogram) else metric.value
        for name, fn in self._probes.items():
            try:
                out[name] = fn()
            except Exception:
                out[name] = None
        if self.enabled:
            out["locks.acquisitions"] = self.locks.acquisitions
            out["locks.contended"] = self.locks.contended
            out["locks.wait_cycles"] = self.locks.wait_cycles
        return dict(sorted(out.items()))


#: The process-wide registry every instrumented component binds to, and
#: the one the lock timelines add their totals to.
METRICS = MetricsRegistry()
