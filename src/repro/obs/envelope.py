"""One carrier for observability data across a thread or process
boundary.

Work done elsewhere -- a process-pool worker, a pool thread -- runs
under :func:`capture`, and the coordinator hands the reply to
:func:`absorb`; a process shard ships its drained stores in the same
envelope form.  The envelope carries spans, ledger events and metrics.
Metrics travel only when the capture runs in another process than the
one that absorbs it: in the same process the registry is shared and
the numbers are already in it, so shipping them would count twice.

The *header* (built by :func:`wire`) names what to capture: the trace
context (``trace_id``/``span_id``) when tracing, ``ledger`` when the
run ledger is on, and ``metrics`` -- the absorbing process's pid --
when the metrics registry is.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.obs.ledger import get_ledger
from repro.obs.metrics import get_metrics
from repro.obs.trace import TraceContext, get_tracer


class Captured:
    """What one :func:`capture` block collected.  Set :attr:`status`
    to ``"error"`` to close its span as failed without raising."""

    __slots__ = ("spans", "events", "metrics", "status")

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self.metrics: Dict[str, Any] = {}
        self.status = "ok"

    def envelope(self) -> Dict[str, Any]:
        return {
            "spans": self.spans, "events": self.events,
            "metrics": self.metrics,
        }


def wire() -> Optional[Dict[str, Any]]:
    """The header for work this thread hands off, or ``None`` when
    every pillar is off (three boolean reads)."""
    tracer = get_tracer()
    ctx = tracer.current() if tracer.enabled else None
    ledger_on = get_ledger().enabled
    metrics_on = get_metrics().enabled
    if ctx is None and not (ledger_on or metrics_on):
        return None
    header: Dict[str, Any] = ctx.to_wire() if ctx is not None else {}
    header["ledger"] = ledger_on
    if metrics_on:
        header["metrics"] = os.getpid()
    return header


@contextmanager
def capture(
    header: Mapping[str, Any],
    name: str,
    *,
    order: int = 0,
    attributes: Optional[Dict[str, Any]] = None,
) -> Iterator[Captured]:
    """Run the block as one unit of work for the coordinator that sent
    *header*: enable the pillars it names, open span *name* under its
    trace context (if any) with the explicit *order* -- so a worker
    process derives exactly the span ids a serial run would -- and
    collect the block's spans and ledger events.  When *header* names
    another absorbing process, the registry is drained on entry (what
    a forked worker inherited, or kept from an earlier task, is not
    this task's) and again on exit into :attr:`Captured.metrics`.
    """
    tracer, ledger, registry = get_tracer(), get_ledger(), get_metrics()
    if header.get("ledger"):
        ledger.enable()
    remote = header.get("metrics", os.getpid()) != os.getpid()
    if remote:
        registry.enable()
        registry.drain()
    captured = Captured()
    span = None
    if "trace_id" in header:
        tracer.enable()
        ctx = TraceContext.from_wire(header)
        span = tracer.start_span(
            name, trace_id=ctx.trace_id, parent_id=ctx.span_id,
            order=order, attributes=attributes,
        )
    try:
        with ledger.capture(captured.events):
            if span is None:
                yield captured
            else:
                with tracer.activate(span.context, sink=captured.spans):
                    yield captured
    except BaseException:
        captured.status = "error"
        raise
    finally:
        tracer.end_span(span, status=captured.status, sink=captured.spans)
        if remote:
            captured.metrics = registry.drain()


def absorb(
    envelope: Mapping[str, Any], *, shard: Optional[int] = None
) -> None:
    """File an envelope into this process's enabled pillars: spans into
    the tracer, events into the ledger, metrics into the registry.

    With *shard*, spans carry it in their volatile dict, and events get
    it plus their child-side ``seq`` as the volatile ``shard_seq`` and
    are sorted by ``(trace_id, shard_seq)``: however two shards' pump
    threads interleave, each trace's events keep the shard's causal
    order and the canonical ledger comes out byte-identical.
    """
    spans = envelope.get("spans")
    tracer = get_tracer()
    if spans and tracer.enabled:
        if shard is not None:
            spans = [
                {**r, "volatile": {**(r.get("volatile") or {}),
                                   "shard": shard}}
                for r in spans
            ]
        tracer.add_records(spans)
    events = envelope.get("events")
    ledger = get_ledger()
    if events and ledger.enabled:
        if shard is not None:
            events = sorted(
                ({**r, "shard": shard, "shard_seq": r.get("seq", i)}
                 for i, r in enumerate(events)),
                key=lambda r: (str(r.get("trace_id", "")), r["shard_seq"]),
            )
        ledger.extend(events)
    metrics = envelope.get("metrics")
    registry = get_metrics()
    if metrics and registry.enabled:
        registry.merge_snapshot(metrics)


__all__ = ["Captured", "absorb", "capture", "wire"]
