"""Unified Counter/Gauge/Histogram registry for the whole suite.

One process-wide store for every number that is not a trace span:
serve request/batch counters, circuit-breaker transitions, and the
timings measured before their label is known (``cache.get.hit`` /
``cache.get.miss`` / ``cache.put``, ``jit.compile/<label>``)
plus counters such as ``jit.fallback``.  Kernel timings are spans (see
:func:`repro.obs.trace.profiled`); ``repro profile`` renders both
stores.  :class:`repro.serve.ServiceMetrics` keeps its own exact
per-service percentiles and mirrors its recordings here.  A pool
worker or process shard drains its registry into an envelope that
:func:`repro.obs.absorb` merges here, so their numbers count too.

- **Counter** -- monotonically increasing count (requests served,
  cache hits, retries);
- **Gauge** -- last-written value (queue depth, worker count);
- **Histogram** -- fixed-bucket duration/size distribution whose
  bucket counts are *mergeable*: a worker process drains its
  histogram, ships the counts in the result envelope, and the parent
  merges them by vector addition -- the property raw-sample percentile
  stores lack.  Percentiles come from
  :func:`repro.obs.stats.bucket_percentile`.

The registry is disabled by default, and every record path checks a
single boolean before doing any work.  ``snapshot()``/``to_json()``
give one export surface; ``merge_snapshot()`` folds in what another
process's ``drain()`` took out.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ValidationError
from repro.obs.stats import bucket_percentile

#: Default histogram bucket upper edges (seconds): ~1µs .. ~67s in
#: powers of four, plus the unbounded overflow bucket.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
    1e-6 * (4.0 ** i) for i in range(14)
)


class Counter:
    """Monotonic counter; *fresh* marks an increment (even of zero)
    since the last drain."""

    __slots__ = ("name", "value", "fresh", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.fresh = False
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError("counters only go up")
        with self._lock:
            self.value += amount
            self.fresh = True

    def drain(self) -> Optional[float]:
        with self._lock:
            value = self.value if self.fresh else None
            self.value, self.fresh = 0.0, False
        return value


class Gauge:
    """Last-value-wins gauge; *fresh* marks a write since the last
    drain."""

    __slots__ = ("name", "value", "fresh", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.fresh = False
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.fresh = True

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount
            self.fresh = True

    def drain(self) -> Optional[float]:
        with self._lock:
            fresh, self.fresh = self.fresh, False
            return self.value if fresh else None


class Histogram:
    """Fixed-bucket histogram, mergeable across processes.

    ``bounds`` are the upper edges of the bounded buckets; observations
    above the last edge land in the overflow bucket.  Percentiles are
    estimated from the bucket counts, so two histograms with the same
    bounds merge exactly (count vectors add) and the merged percentile
    is the percentile of the merged population.
    """

    __slots__ = (
        "name", "bounds", "counts", "total", "sum", "min", "max", "_lock",
    )

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValidationError("histogram bounds must be increasing")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[idx] += 1
            self.total += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        with self._lock:
            counts = list(self.counts)
        return bucket_percentile(self.bounds, counts, q)

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another process into this one."""
        if tuple(snapshot["bounds"]) != self.bounds:
            raise ValidationError(
                f"histogram {self.name!r}: bucket bounds differ, "
                "cannot merge"
            )
        counts = snapshot["counts"]
        with self._lock:
            for i, count in enumerate(counts):
                self.counts[i] += int(count)
            self.total += int(snapshot["count"])
            self.sum += float(snapshot["sum"])
            other_min = snapshot.get("min")
            other_max = snapshot.get("max")
            if other_min is not None and (
                self.min is None or other_min < self.min
            ):
                self.min = float(other_min)
            if other_max is not None and (
                self.max is None or other_max > self.max
            ):
                self.max = float(other_max)

    def drain(self) -> Optional[Dict[str, Any]]:
        """The observations since the last drain (``None`` for none)
        in the form :meth:`merge` takes; the histogram restarts
        empty."""
        with self._lock:
            out = None if not self.total else {
                "bounds": list(self.bounds), "counts": self.counts,
                "count": self.total, "sum": self.sum,
                "min": self.min, "max": self.max,
            }
            self.counts = [0] * len(self.counts)
            self.total, self.sum, self.min, self.max = 0, 0.0, None, None
        return out

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self.counts)
            total = self.total
            acc = self.sum
            lo, hi = self.min, self.max
        return {
            "bounds": list(self.bounds),
            "counts": counts,
            "count": total,
            "sum": acc,
            "mean": acc / total if total else 0.0,
            "min": lo,
            "max": hi,
            "p50": bucket_percentile(self.bounds, counts, 50.0),
            "p95": bucket_percentile(self.bounds, counts, 95.0),
            "p99": bucket_percentile(self.bounds, counts, 99.0),
        }


class MetricsRegistry:
    """Process-wide named metrics with one export surface.

    Instruments are created on first use and live for the registry's
    lifetime; recording on a disabled registry costs one boolean check
    and touches nothing.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------- control

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}

    # --------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = Counter(name)
                self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = Gauge(name)
                self._gauges[name] = instrument
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = Histogram(name, bounds)
                self._histograms[name] = instrument
        return instrument

    # ------------------------------------------------------ recording API

    def inc(self, name: str, amount: float = 1.0) -> None:
        if not self.enabled:
            return
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.histogram(name).observe(value)

    # ------------------------------------------------------------- export

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {
                name: gauges[name].value for name in sorted(gauges)
            },
            "histograms": {
                name: histograms[name].snapshot()
                for name in sorted(histograms)
            },
        }

    def drain(self) -> Dict[str, Any]:
        """What was recorded since the last drain, in the form
        :meth:`merge_snapshot` takes; sections with nothing new are
        left out, so nothing recorded gives ``{}``.  Instruments are
        zeroed in place, not replaced, so a record racing the drain
        lands in the next one instead of being lost."""
        with self._lock:
            sections = {
                "counters": list(self._counters.values()),
                "gauges": list(self._gauges.values()),
                "histograms": list(self._histograms.values()),
            }
        out: Dict[str, Any] = {}
        for section, instruments in sections.items():
            drained = {i.name: i.drain() for i in instruments}
            body = {k: v for k, v in drained.items() if v is not None}
            if body:
                out[section] = body
        return out

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another process's :meth:`snapshot` into this registry
        (counters add, gauges last-write-wins, histograms merge by
        bucket)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, hist_snap in snapshot.get("histograms", {}).items():
            self.histogram(
                name, bounds=tuple(hist_snap["bounds"])
            ).merge(hist_snap)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def _prom_name(name: str) -> str:
    """A metric name sanitized to the Prometheus charset (dots and any
    other punctuation become underscores)."""
    out = [
        ch if (ch.isalnum() or ch in "_:") else "_" for ch in name
    ]
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


def _prom_value(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def prometheus_text(snapshot: Mapping[str, Any]) -> str:
    """A :meth:`MetricsRegistry.snapshot` in the Prometheus text
    exposition format (version 0.0.4).

    Counters and gauges map one to one; histograms emit the standard
    cumulative ``_bucket{le="..."}`` series plus ``_sum`` and
    ``_count``, which is exactly what lets the fixed-bucket mergeable
    histograms scrape into any Prometheus-compatible stack.
    """
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(
            f"{metric} {_prom_value(snapshot['counters'][name])}"
        )
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(
            f"{metric} {_prom_value(snapshot['gauges'][name])}"
        )
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["counts"]):
            cumulative += int(count)
            lines.append(
                f'{metric}_bucket{{le="{repr(float(bound))}"}} '
                f"{cumulative}"
            )
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {int(hist["count"])}'
        )
        lines.append(f"{metric}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{metric}_count {int(hist['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")


_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (starts disabled)."""
    return _REGISTRY


def enable_metrics() -> MetricsRegistry:
    _REGISTRY.enable()
    return _REGISTRY


def disable_metrics() -> MetricsRegistry:
    _REGISTRY.disable()
    return _REGISTRY


__all__: List[str] = [
    "Counter",
    "DEFAULT_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "disable_metrics",
    "enable_metrics",
    "get_metrics",
    "prometheus_text",
]
