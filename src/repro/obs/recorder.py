"""Flight recorder: a bounded ring of periodic metric/gauge samples.

Post-mortem observability for the serving plane.  Counters and
histograms tell you *what* the steady state looked like; when a shard
dies the question is *what the last few seconds looked like* -- queue
depths climbing, backlog piling onto one shard, cache hit rate
cratering.  The :class:`FlightRecorder` samples the process-wide
:class:`~repro.obs.metrics.MetricsRegistry` snapshot -- which also
holds what pool workers and process shards recorded, once their
envelopes are absorbed -- plus the cheap gauge callables registered
with :meth:`~FlightRecorder.add_source` (:meth:`~FlightRecorder.attach_cluster`
registers ``ShardCluster.gauges``; ``repro serve --trace-dir``
registers the service's ``gauges``) into a ``deque(maxlen=capacity)``
ring, so memory stays bounded no matter how long the service runs.

Dumps are triggered two ways:

- explicitly, via :meth:`FlightRecorder.dump` (e.g. from a CLI exit
  path); or
- automatically, via :meth:`FlightRecorder.watch_ledger`, which hooks
  the event watcher of the tracer's record store and snapshots the
  ring the moment a ``shard.killed`` / ``shard.down`` /
  ``shard.restarted`` event record lands -- *before* the supervisor's
  restart scrubs the evidence.

Every dump takes one fresh sample first, so the record always includes
the state at the instant of the trigger (the killed shard's last gauge
readings), then freezes the ring into an immutable list.  Dumps never
record events themselves: a dump triggered by an event watcher
recording more events would recurse (the store's re-entrancy guard
would stop it, but the half-written dump would still be noise).

Samples are *cumulative* registry snapshots; consumers -- the SLO
evaluator's window math, the ``repro obs top`` report -- difference
adjacent samples to recover rates.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional

from repro.core.errors import ValidationError
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import NUMBER, check_fields, get_tracer, read_jsonl

#: Events that trigger an automatic flight dump when
#: :meth:`FlightRecorder.watch_ledger` is armed.
DEFAULT_DUMP_EVENTS = ("shard.killed", "shard.down", "shard.restarted")


class FlightRecorder:
    """Bounded ring buffer of metric samples with crash-dump hooks.

    Parameters
    ----------
    capacity:
        Ring size -- the newest *capacity* samples are retained.
    interval_s:
        Sampler-thread period for :meth:`start`.
    registry:
        Metrics registry to snapshot; defaults to the process registry.
    """

    def __init__(
        self,
        capacity: int = 256,
        interval_s: float = 0.05,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValidationError("recorder capacity must be >= 1")
        if interval_s <= 0.0:
            raise ValidationError("recorder interval_s must be > 0")
        self.capacity = int(capacity)
        self.interval_s = float(interval_s)
        self.registry = registry if registry is not None else get_metrics()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._sources: Dict[str, Callable[[], Mapping[str, float]]] = {}
        self._dumps: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._watcher: Optional[Callable[[Dict[str, Any]], Any]] = None

    # ------------------------------------------------------------ sources

    def add_source(
        self, name: str, fn: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register a named gauge source; *fn* must be cheap (lock-only,
        no cross-process RPC) and is called once per sample.  A source
        that raises is skipped for that sample, never unregistered."""
        with self._lock:
            self._sources[name] = fn

    def attach_cluster(self, cluster: Any) -> None:
        """Sample a :class:`~repro.serve.cluster.ShardCluster`'s
        lock-only gauges (per-shard alive/backlog/queue depth)."""
        self.add_source("cluster", cluster.gauges)

    # ------------------------------------------------------------ sampling

    def sample(self) -> Dict[str, Any]:
        """Take one sample (cumulative registry snapshot + gauge
        sources), append it to the ring, and return it."""
        snapshot = self.registry.snapshot()
        record: Dict[str, Any] = {
            "ts": time.time(),
            "counters": snapshot["counters"],
            "gauges": dict(snapshot["gauges"]),
            "histograms": snapshot["histograms"],
        }
        with self._lock:
            sources = list(self._sources.items())
        for name, fn in sources:
            try:
                values = fn()
            except Exception:
                continue
            for key, value in values.items():
                record["gauges"][f"{name}.{key}"] = float(value)
        with self._lock:
            self._ring.append(record)
        return record

    def samples(self) -> List[Dict[str, Any]]:
        """Ring contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # ------------------------------------------------------------ sampler

    def start(self) -> "FlightRecorder":
        """Start the background sampler thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="flight-recorder", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def stop(self) -> None:
        """Stop the sampler and unhook any event watcher."""
        with self._lock:
            thread = self._thread
            self._thread = None
        self._stop.set()
        if thread is not None:
            thread.join(timeout=5.0)
        self.unwatch_ledger()

    # ------------------------------------------------------------ dumps

    def dump(self, reason: str, **fields: Any) -> Dict[str, Any]:
        """Freeze the ring into a dump record.

        Takes one fresh sample first -- the dump always carries the
        state at the instant of the trigger -- then snapshots the ring.
        Records no events (see module docstring).
        """
        self.sample()
        record = {
            "reason": reason,
            "ts": time.time(),
            "fields": dict(fields),
            "samples": self.samples(),
        }
        with self._lock:
            self._dumps.append(record)
        return record

    @property
    def dumps(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._dumps)

    def watch_ledger(self, events: tuple = DEFAULT_DUMP_EVENTS) -> None:
        """Dump automatically when any of *events* is recorded (shard
        crash, chaos kill, supervisor restart)."""
        self.unwatch_ledger()
        watched = tuple(events)

        def _on_event(record: Dict[str, Any]) -> None:
            if record.get("event") in watched:
                self.dump(
                    "ledger:" + str(record.get("event")),
                    **{
                        key: value
                        for key, value in record.items()
                        if key not in ("ts", "seq", "parent_id")
                    },
                )

        get_tracer().add_watcher(_on_event)
        self._watcher = _on_event

    def unwatch_ledger(self) -> None:
        if self._watcher is not None:
            get_tracer().remove_watcher(self._watcher)
        self._watcher = None

    # ------------------------------------------------------------ export

    def export_jsonl(self, path: str) -> int:
        """Write samples then dump records as JSON lines; returns the
        number of lines written."""
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.samples():
                handle.write(
                    json.dumps(
                        {"kind": "sample", **record}, sort_keys=True
                    )
                    + "\n"
                )
                lines += 1
            for record in self.dumps:
                handle.write(
                    json.dumps({"kind": "dump", **record}, sort_keys=True)
                    + "\n"
                )
                lines += 1
        return lines


_SAMPLE_FIELDS = {
    "ts": NUMBER, "counters": dict, "gauges": dict, "histograms": dict,
}
_DUMP_FIELDS = {"reason": str, "ts": NUMBER, "samples": list}


def _numbers(values: Any) -> bool:
    return all(
        isinstance(v, NUMBER) and not isinstance(v, bool) for v in values
    )


def _check_sample(record: Any) -> Optional[str]:
    problem = check_fields(record, _SAMPLE_FIELDS)
    if problem is not None:
        return problem
    if not _numbers(record["counters"].values()):
        return "a counter is not a number"
    if not _numbers(record["gauges"].values()):
        return "a gauge is not a number"
    for value in record["histograms"].values():
        problem = check_fields(value, {"bounds": list, "counts": list})
        if problem is not None:
            return f"histogram: {problem}"
        if not _numbers(value["bounds"] + value["counts"]):
            return "a histogram bucket is not a number"
    return None


def _check_flight(record: Any) -> Optional[str]:
    problem = check_fields(record, {}, {"kind": str})
    if problem is not None:
        return problem
    if record.get("kind") != "dump":
        return _check_sample(record)
    problem = check_fields(record, _DUMP_FIELDS, {"fields": dict})
    if problem is not None:
        return problem
    for sample in record["samples"]:
        problem = _check_sample(sample)
        if problem is not None:
            return f"dump sample: {problem}"
    return None


def load_flight_jsonl(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """Load a :meth:`FlightRecorder.export_jsonl` file back into
    ``{"samples": [...], "dumps": [...]}``; a record of the wrong shape
    raises :class:`ValidationError` naming the file and line."""
    out: Dict[str, List[Dict[str, Any]]] = {"samples": [], "dumps": []}
    for record in read_jsonl(path, _check_flight):
        kind = record.pop("kind", "sample")
        out["dumps" if kind == "dump" else "samples"].append(record)
    return out


__all__ = [
    "DEFAULT_DUMP_EVENTS",
    "FlightRecorder",
    "load_flight_jsonl",
]
