"""The run ledger: the event-kind view of the tracer's record store.

Spans answer "how long"; events answer "what happened".  Every notable
lifecycle event -- run started/finished, fault injected, retry
scheduled, cache hit, admission rejected, checkpoint saved -- is one
event record in :class:`~repro.obs.trace.Tracer`'s store, next to the
span records, keyed by ``trace_id`` (and the parent span) whenever it
happened under an active trace context, so a request's full story
(queue wait -> batch -> worker -> kernels -> retries) reconstructs
from one store.

The event kind has its own switch (a run can audit its event story
without paying for spans), disabled by default: a disabled
``get_ledger().event(...)`` costs one boolean read inside
:meth:`Tracer.event`, which the view hands out unwrapped.  This module
holds the event views: ``ledger.jsonl`` export and load, and the
canonical per-trace form.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.trace import (
    NUMBER,
    Tracer,
    check_fields,
    get_tracer,
    read_jsonl,
    write_jsonl,
)

#: Event-record keys that vary run to run (wall clock, measured
#: delays, merge bookkeeping); the canonical form strips them, and the
#: parent span id too, so a canonical ledger still compares with one
#: recorded before events carried it.  ``shard_seq`` is the
#: originating shard's local sequence number, preserved when
#: :func:`repro.obs.absorb` re-sorts a batch a shard shipped,
#: deterministically.
VOLATILE_EVENT_FIELDS = (
    "ts", "seq", "elapsed_s", "delay_s", "wait_s", "shard_seq",
    "parent_id",
)


class RunLedger:
    """The event kind of *tracer*'s store: its switch, its records and
    their exports.  :attr:`event`, :attr:`events` and :attr:`reset` are
    the tracer's own bound methods -- recording through the view adds
    no call, and a reset drops the spans too, since the ledger is a
    view of the one store, not a store of its own."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.event, self.events = tracer.event, tracer.events
        self.reset = tracer.reset

    @property
    def enabled(self) -> bool:
        return self.tracer.events_enabled

    def enable(self) -> None:
        self.tracer.events_enabled = True

    def disable(self) -> None:
        self.tracer.events_enabled = False

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
        return write_jsonl(path, self.events())


_EVENT_REQUIRED = {"event": str, "trace_id": str, "ts": NUMBER}
_EVENT_OPTIONAL = {"seq": int, "parent_id": str}


def load_ledger_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load event records written by :meth:`RunLedger.export_jsonl`."""
    return read_jsonl(
        path, lambda r: check_fields(r, _EVENT_REQUIRED, _EVENT_OPTIONAL)
    )


_LEDGER = RunLedger(get_tracer())


def get_ledger() -> RunLedger:
    """The process-wide ledger view (starts disabled)."""
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
