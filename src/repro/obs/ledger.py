"""Append-only run ledger: the event log behind ``repro obs show``.

Spans answer "how long"; the ledger answers "what happened".  Every
notable lifecycle event -- run started/finished, fault injected, retry
scheduled, cache hit, admission rejected, checkpoint saved -- is
appended as one JSON record, keyed by ``trace_id`` whenever the event
happened under an active trace context, so a request's full story
(queue wait -> batch -> worker -> kernels -> retries) reconstructs
from one grep of the ledger plus the trace's spans.

Same enablement policy as the tracer and metrics registry: disabled by
default, one boolean check on the hot path.  Work done in another
thread or process records into a buffer (:meth:`RunLedger.capture`)
that the coordinator merges with :meth:`RunLedger.extend`; both run
inside :func:`repro.obs.capture` and :func:`repro.obs.absorb`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

#: Event-record keys that vary run to run (wall clock, measured
#: delays, merge bookkeeping); the canonical form strips them.
#: ``shard_seq`` is the originating shard's local sequence number,
#: preserved when :func:`repro.obs.absorb` re-sorts a batch a shard
#: shipped, deterministically.
VOLATILE_EVENT_FIELDS = (
    "ts", "seq", "elapsed_s", "delay_s", "wait_s", "shard_seq",
)


class RunLedger:
    """Process-wide append-only event log."""

    def __init__(
        self, enabled: bool = False, max_events: int = 200_000
    ) -> None:
        self.enabled = enabled
        self.max_events = max_events
        self.dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._events: List[Dict[str, Any]] = []
        self._seq = 0
        self._watchers: List[Callable[[Dict[str, Any]], Any]] = []

    # ------------------------------------------------------------- control

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._events = []
            self._seq = 0
            self.dropped = 0

    # ------------------------------------------------------------- record

    def event(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        **fields: Any,
    ) -> Optional[Dict[str, Any]]:
        """Append one event.

        With no explicit *trace_id* the tracer's active context (if
        any) supplies one, which is what keys serve/exec/resilience
        events to the request they belong to without every call site
        threading ids around.
        """
        if not self.enabled:
            return None
        if trace_id is None:
            from repro.obs.trace import get_tracer

            trace_id = get_tracer().current_trace_id()
        record: Dict[str, Any] = {
            "event": name,
            "trace_id": trace_id or "",
            "ts": time.time(),
        }
        record.update(fields)
        buffer = getattr(self._local, "buffer", None)
        if buffer is not None:
            buffer.append(record)
            return record
        self._append(record)
        self._notify(record)
        return record

    # ------------------------------------------------------------ watchers

    def add_watcher(
        self, watcher: Callable[[Dict[str, Any]], Any]
    ) -> None:
        """Register *watcher* to be called (outside the ledger lock)
        with every event recorded through :meth:`event` on this
        process's direct path -- captured worker events are merged in
        bulk and do not fire watchers.  This is how the flight recorder
        triggers crash dumps on ``shard.killed``/``shard.down`` without
        the hot path paying anything while no watcher is registered."""
        with self._lock:
            if watcher not in self._watchers:
                self._watchers.append(watcher)

    def remove_watcher(
        self, watcher: Callable[[Dict[str, Any]], Any]
    ) -> None:
        with self._lock:
            if watcher in self._watchers:
                self._watchers.remove(watcher)

    def _notify(self, record: Dict[str, Any]) -> None:
        if not self._watchers:
            return
        if getattr(self._local, "in_watcher", False):
            return  # a watcher recording events must not recurse
        self._local.in_watcher = True
        try:
            for watcher in list(self._watchers):
                try:
                    watcher(record)
                except Exception:  # pragma: no cover - defensive
                    continue
        finally:
            self._local.in_watcher = False

    def _append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return
            record = dict(record)
            record["seq"] = self._seq
            self._seq += 1
            self._events.append(record)

    @contextmanager
    def capture(
        self, buffer: List[Dict[str, Any]]
    ) -> Iterator[List[Dict[str, Any]]]:
        """Redirect this thread's events into *buffer* (the envelope
        mechanism for process-pool workers)."""
        previous = getattr(self._local, "buffer", None)
        self._local.buffer = buffer
        try:
            yield buffer
        finally:
            self._local.buffer = previous

    def extend(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Merge captured worker events, assigning local sequence
        numbers on arrival.  A coordinator that is itself running under
        :meth:`capture` forwards the records outward instead."""
        buffer = getattr(self._local, "buffer", None)
        if buffer is not None:
            buffer.extend(dict(r) for r in records)
            return
        for record in records:
            self._append(dict(record))

    def drain(self) -> List[Dict[str, Any]]:
        """Take every event out (sequence numbers keep counting)."""
        with self._lock:
            records, self._events = self._events, []
        return records

    # ------------------------------------------------------------- report

    def events(
        self, trace_id: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        with self._lock:
            records = [dict(r) for r in self._events]
        if trace_id is not None:
            records = [r for r in records if r["trace_id"] == trace_id]
        return records

    def canonical_json(self, trace_id: Optional[str] = None) -> str:
        """Deterministic encoding: events grouped per trace (sorted by
        trace id), volatile fields stripped, per-trace arrival order
        kept.  Cross-trace interleaving is scheduling noise, so it is
        exactly what this form factors out."""
        by_trace: Dict[str, List[Dict[str, Any]]] = {}
        for record in self.events(trace_id):
            entry = {
                k: v
                for k, v in record.items()
                if k not in VOLATILE_EVENT_FIELDS
            }
            by_trace.setdefault(str(record["trace_id"]), []).append(entry)
        grouped = [
            {"trace_id": tid, "events": by_trace[tid]}
            for tid in sorted(by_trace)
        ]
        return json.dumps(
            grouped,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
        )

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """One event per line; returns the event count."""
        records = self.events()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


def load_ledger_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load event records written by :meth:`RunLedger.export_jsonl`."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


_LEDGER = RunLedger()


def get_ledger() -> RunLedger:
    """The process-wide ledger (starts disabled)."""
    return _LEDGER


def enable_ledger() -> RunLedger:
    _LEDGER.enable()
    return _LEDGER


def disable_ledger() -> RunLedger:
    _LEDGER.disable()
    return _LEDGER


__all__ = [
    "RunLedger",
    "VOLATILE_EVENT_FIELDS",
    "disable_ledger",
    "enable_ledger",
    "get_ledger",
    "load_ledger_jsonl",
]
