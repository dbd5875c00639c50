"""Service metrics: the numbers behind every serving claim.

:class:`ServiceMetrics` accumulates per-request latencies, queue-depth
samples, batch occupancies and outcome counters under its own lock, and
:meth:`ServiceMetrics.snapshot` folds them into the JSON report the
CLI, the bench and CI artifacts share: p50/p95/p99 latency, throughput,
batch occupancy, cache-hit ratio, rejection and dedup accounting.

The percentile/summary math lives in :mod:`repro.obs.stats` (one
implementation for serve, the load generator, the benches and the
``repro obs`` reports).  When the process-wide
:class:`repro.obs.MetricsRegistry` is enabled, every recording also
feeds its counters/histograms, so the unified ``snapshot()`` covers the
service too.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import get_metrics
from repro.obs.stats import summary as _summary

#: Cap on retained per-request samples; beyond it the reservoir keeps
#: the most recent window so snapshots stay O(bounded) in a long-lived
#: service.
MAX_SAMPLES = 100_000


class ServiceMetrics:
    """Thread-safe accumulator for one :class:`EvaluationService`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.rejected_reasons: Dict[str, int] = {}
        self.cache_hits = 0
        self.deduped = 0
        self.computed = 0
        self.retries = 0
        self.batches = 0
        self._latencies: List[float] = []
        self._queue_waits: List[float] = []
        self._batch_sizes: List[int] = []
        self._queue_depths: List[int] = []

    # ------------------------------------------------------------ recording

    def record_submit(self, queue_depth: int) -> None:
        with self._lock:
            self.submitted += 1
            self._queue_depths.append(queue_depth)
            self._trim(self._queue_depths)
            in_flight = self.submitted - self.completed - self.failed
        registry = get_metrics()
        if registry.enabled:
            registry.inc("serve.submitted")
            registry.set_gauge("serve.queue_depth", queue_depth)
            registry.set_gauge("serve.in_flight", in_flight)

    def record_reject(self, reason: str) -> None:
        with self._lock:
            self.rejected += 1
            self.rejected_reasons[reason] = (
                self.rejected_reasons.get(reason, 0) + 1
            )
        get_metrics().inc("serve.rejected")

    def record_batch(
        self,
        *,
        size: int,
        computed: int,
        cache_hits: int,
        deduped: int,
        retries: int = 0,
    ) -> None:
        with self._lock:
            self.batches += 1
            self.computed += computed
            self.cache_hits += cache_hits
            self.deduped += deduped
            self.retries += retries
            self._batch_sizes.append(size)
            self._trim(self._batch_sizes)
        registry = get_metrics()
        if registry.enabled:
            registry.inc("serve.batches")
            registry.inc("serve.computed", computed)
            registry.inc("serve.cache_hits", cache_hits)
            registry.inc("serve.deduped", deduped)
            registry.inc("serve.retries", retries)
            registry.observe("serve.batch_occupancy", size)

    def record_done(
        self, *, latency_s: float, queue_wait_s: float, ok: bool
    ) -> None:
        with self._lock:
            if ok:
                self.completed += 1
            else:
                self.failed += 1
            self._latencies.append(latency_s)
            self._queue_waits.append(queue_wait_s)
            self._trim(self._latencies)
            self._trim(self._queue_waits)
            in_flight = self.submitted - self.completed - self.failed
        registry = get_metrics()
        if registry.enabled:
            registry.inc("serve.completed" if ok else "serve.failed")
            registry.observe("serve.latency_s", latency_s)
            registry.observe("serve.queue_wait_s", queue_wait_s)
            registry.set_gauge("serve.in_flight", in_flight)

    @staticmethod
    def _trim(samples: List[Any]) -> None:
        if len(samples) > MAX_SAMPLES:
            del samples[: len(samples) - MAX_SAMPLES]

    # ------------------------------------------------------------ reporting

    def snapshot(
        self,
        *,
        queue_depth: int = 0,
        cache_stats: Optional[Dict[str, Any]] = None,
        evaluator_stats: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One JSON-serializable snapshot of everything measured."""
        with self._lock:
            elapsed = time.perf_counter() - self._started
            done = self.completed + self.failed
            served = self.cache_hits + self.deduped + self.computed
            snapshot = {
                "elapsed_s": elapsed,
                "requests": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "failed": self.failed,
                    "rejected": self.rejected,
                    "rejected_reasons": dict(self.rejected_reasons),
                    "in_flight": self.submitted - done,
                },
                "throughput_rps": done / elapsed if elapsed > 0 else 0.0,
                "latency_s": _summary(self._latencies),
                "queue_wait_s": _summary(self._queue_waits),
                "queue_depth": {
                    "current": queue_depth,
                    "max": max(self._queue_depths, default=0),
                    "mean": (
                        sum(self._queue_depths) / len(self._queue_depths)
                        if self._queue_depths
                        else 0.0
                    ),
                },
                "batches": {
                    "count": self.batches,
                    "mean_occupancy": (
                        sum(self._batch_sizes) / len(self._batch_sizes)
                        if self._batch_sizes
                        else 0.0
                    ),
                    "max_occupancy": max(self._batch_sizes, default=0),
                },
                "evaluations": {
                    "computed": self.computed,
                    "cache_hits": self.cache_hits,
                    "deduped": self.deduped,
                    "retries": self.retries,
                    "cache_hit_ratio": (
                        self.cache_hits / served if served else 0.0
                    ),
                    "dedup_ratio": (
                        self.deduped / served if served else 0.0
                    ),
                },
            }
        if cache_stats is not None:
            snapshot["cache"] = cache_stats
        if evaluator_stats is not None:
            snapshot["evaluator"] = evaluator_stats
        return snapshot

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.snapshot(**kwargs), indent=2, sort_keys=True)
