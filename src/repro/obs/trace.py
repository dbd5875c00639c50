"""Deterministic end-to-end tracing across serve, exec and kernels.

Dapper-style distributed tracing, scaled to this suite: every request
gets a trace, every interesting stage of its life (queue wait, batch
dispatch, worker evaluation, inner kernels) gets a span, and context is
propagated *explicitly* across thread and process boundaries through
the task envelopes of :class:`~repro.exec.ParallelEvaluator` and
:mod:`repro.serve`.  Two properties make these traces different from
wall-clock-only tracing:

- **deterministic identity** -- trace ids derive from the request's
  content digest plus a per-service occurrence counter, and span ids
  derive from ``(trace_id, parent_id, name, order)`` where *order* is a
  per-parent monotonic counter.  Rerunning the same request stream
  yields byte-identical trace structure (ids, parents, attributes);
  only the wall-clock fields differ, and the canonical form excludes
  them.  A span created inside a process-pool worker therefore gets the
  *same* id it would get in a serial run, which is what lets traces be
  compared across execution modes at all;
- **near-zero disabled cost** -- every hook first checks one boolean;
  the global tracer starts disabled.

:func:`profiled` is the kernel instrumentation point: a decorated
kernel opens a span named after it whenever the tracer is on and the
calling thread has an active trace context, so kernel time shows up
inside request traces and in the ``repro profile`` span tree.

Exports: newline-delimited JSON (one span record per line, loadable by
:func:`load_trace_jsonl`) and the Chrome ``trace_event`` format --
write :meth:`Tracer.to_chrome` to a file and open it in
``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
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
    Tuple,
    Union,
)

#: Span-record keys that vary between two otherwise-identical runs
#: (wall-clock timing); :func:`canonical_spans` strips them.
VOLATILE_SPAN_FIELDS = ("start_s", "end_s", "duration_s")

_ID_HEX = 16  # 64-bit hex ids, Dapper-sized


def _derive_id(*parts: str) -> str:
    """Stable hex id from the given identity parts."""
    material = "\x1f".join(parts)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:_ID_HEX]


def derive_trace_id(material: str, occurrence: int = 0) -> str:
    """Deterministic trace id for the *occurrence*-th request with the
    given content *material* (normally a request digest)."""
    return _derive_id("trace", material, str(occurrence))


def derive_span_id(
    trace_id: str, parent_id: str, name: str, order: int
) -> str:
    """Deterministic span id: same position in the same trace -> same
    id, in a worker process or in a serial run alike."""
    return _derive_id("span", trace_id, parent_id, name, str(order))


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity: which trace, and which span is the
    parent of whatever happens next.  Crossing a thread or process
    boundary means shipping one of these in the task envelope."""

    trace_id: str
    span_id: str = ""

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, wire: Mapping[str, str]) -> "TraceContext":
        return cls(
            trace_id=str(wire["trace_id"]),
            span_id=str(wire.get("span_id", "")),
        )


class TraceSlots:
    """Deterministic trace placement for submitted work, by content key.

    A fresh root takes the key's next occurrence: the n-th submission of
    the same key gets the n-th trace id derived from ``prefix + key``,
    so a rerun of the same stream reproduces its trace ids.  A
    submission stitched under a caller's span (*ctx*) takes an order
    slot per ``(trace, parent)`` instead: each distinct key gets the
    next slot, and a resubmission of the same key (a cluster replay)
    reuses its slot -- identical span ids across attempts and backends.
    Not locked: callers allocate under their own lock.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._occurrences: Dict[str, int] = {}
        self._orders: Dict[Tuple[str, str], Dict[str, int]] = {}

    def place(
        self, key: str, ctx: Optional[TraceContext] = None
    ) -> Tuple[str, str, int]:
        """``(trace_id, parent_id, order)`` for the next submission of
        *key*, rooted fresh or stitched under *ctx*."""
        if ctx is not None:
            orders = self._orders.setdefault((ctx.trace_id, ctx.span_id), {})
            return ctx.trace_id, ctx.span_id, orders.setdefault(
                key, len(orders)
            )
        occurrence = self._occurrences.get(key, 0)
        self._occurrences[key] = occurrence + 1
        return derive_trace_id(self.prefix + key, occurrence), "", 0

    def clear(self) -> None:
        self._occurrences.clear()
        self._orders.clear()


class Span:
    """One named, timed unit of work inside a trace.

    Spans are open until :meth:`Tracer.end_span` (or the ``span()``
    context manager exit) stamps the end time and files the record.
    *attributes* are part of the span's deterministic identity;
    *volatile* attributes (batch occupancy, timing-dependent facts) are
    reported but excluded from the canonical form.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "order",
        "start_s", "end_s", "status", "attributes", "volatile",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str,
        order: int,
        start_s: float,
        attributes: Optional[Dict[str, Any]] = None,
        volatile: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.order = order
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.status = "ok"
        self.attributes = dict(attributes or {})
        self.volatile = dict(volatile or {})

    @property
    def context(self) -> TraceContext:
        """Context for children of this span."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_record(self) -> Dict[str, Any]:
        end = self.end_s if self.end_s is not None else self.start_s
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "order": self.order,
            "start_s": self.start_s,
            "end_s": end,
            "duration_s": end - self.start_s,
            "status": self.status,
            "attributes": dict(self.attributes),
            "volatile": dict(self.volatile),
        }


def canonical_spans(
    records: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """*records* reduced to their deterministic identity.

    Drops :data:`VOLATILE_SPAN_FIELDS` and the volatile attribute dict,
    and orders spans as a depth-first walk of each trace tree (children
    by ``order``), traces sorted by id -- so two runs of the same
    request stream produce byte-identical canonical JSON regardless of
    worker scheduling or batch timing.

    Two further normalizations make *stitched* cluster traces compare
    byte-identical across backends and chaos replays: duplicate span
    ids collapse to their first record (a replayed attempt of the same
    request re-derives the same ids, so a kill-and-replay trace equals
    its fault-free twin), and spans whose volatile dict carries
    ``ephemeral: True`` (execution-mode artifacts that exist on one
    backend only, such as transport spans) are excluded entirely.
    """
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    seen_ids: set = set()
    for record in records:
        volatile = record.get("volatile") or {}
        if volatile.get("ephemeral"):
            continue
        identity = (str(record["trace_id"]), str(record["span_id"]))
        if identity in seen_ids:
            continue
        seen_ids.add(identity)
        entry = {
            k: v
            for k, v in record.items()
            if k not in VOLATILE_SPAN_FIELDS and k != "volatile"
        }
        by_trace.setdefault(str(record["trace_id"]), []).append(entry)

    ordered: List[Dict[str, Any]] = []
    for trace_id in sorted(by_trace):
        spans = by_trace[trace_id]
        children: Dict[str, List[Dict[str, Any]]] = {}
        ids = {s["span_id"] for s in spans}
        roots = []
        for span in spans:
            parent = span.get("parent_id") or ""
            if parent and parent in ids:
                children.setdefault(parent, []).append(span)
            else:
                roots.append(span)
        roots.sort(key=lambda s: (s.get("order", 0), s["span_id"]))
        stack = list(reversed(roots))
        while stack:
            span = stack.pop()
            ordered.append(span)
            kids = children.get(span["span_id"], [])
            kids.sort(key=lambda s: (s.get("order", 0), s["span_id"]))
            stack.extend(reversed(kids))
    return ordered


class _Frame:
    """One thread-local activation: a context plus an optional sink
    that captures finished spans instead of the global list.

    Sink-bearing frames (the worker envelope mechanism) also scope the
    span-order counters to the activation: a replayed evaluation of the
    same request starts counting from zero again, so its spans derive
    the same deterministic ids as the first attempt -- which is what
    lets a kill-and-replay trace collapse onto its fault-free twin in
    :func:`canonical_spans`.
    """

    __slots__ = ("ctx", "sink", "orders")

    def __init__(
        self, ctx: TraceContext, sink: Optional[List[Dict[str, Any]]]
    ) -> None:
        self.ctx = ctx
        self.sink = sink
        self.orders: Optional[Dict[Tuple[str, str], int]] = (
            {} if sink is not None else None
        )


class Tracer:
    """Process-wide span collector with explicit context propagation.

    All span creation goes through the thread's activation stack: a
    frame is pushed either by :meth:`activate` (entering a propagated
    context, e.g. in a worker) or by an open :meth:`span` (children
    nest under it).  Span ids are deterministic (see module docstring);
    the per-``(trace_id, parent_id)`` order counters that feed them are
    trace-scoped, so a fresh tracer in a worker process allocates the
    same ids a long-lived serial tracer would.
    """

    def __init__(
        self, name: str = "repro", enabled: bool = False,
        max_spans: int = 100_000,
    ) -> None:
        self.name = name
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: List[Dict[str, Any]] = []
        self._orders: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------- control

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop collected spans and order counters (keeps enablement)."""
        with self._lock:
            self._spans = []
            self._orders = {}
            self.dropped = 0

    # ------------------------------------------------------- context stack

    def _frames(self) -> List[_Frame]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = []
            self._local.frames = frames
        return frames

    def current(self) -> Optional[TraceContext]:
        """The active context of this thread, or ``None``."""
        frames = getattr(self._local, "frames", None)
        if not frames:
            return None
        return frames[-1].ctx

    def current_trace_id(self) -> Optional[str]:
        ctx = self.current()
        return ctx.trace_id if ctx is not None else None

    def _current_sink(self) -> Optional[List[Dict[str, Any]]]:
        for frame in reversed(self._frames()):
            if frame.sink is not None:
                return frame.sink
        return None

    @contextmanager
    def activate(
        self,
        ctx: TraceContext,
        sink: Optional[List[Dict[str, Any]]] = None,
    ) -> Iterator[TraceContext]:
        """Make *ctx* the thread's active context.

        With a *sink*, spans finished inside the activation are captured
        into it instead of the tracer's global list -- the envelope
        mechanism workers use to ship spans back to the coordinator.
        """
        frames = self._frames()
        frames.append(_Frame(ctx, sink))
        try:
            yield ctx
        finally:
            frames.pop()

    # ------------------------------------------------------- span creation

    def next_order(self, trace_id: str, parent_id: str) -> int:
        key = (trace_id, parent_id)
        frames = getattr(self._local, "frames", None)
        if frames:
            for frame in reversed(frames):
                if frame.orders is not None:
                    order = frame.orders.get(key, 0)
                    frame.orders[key] = order + 1
                    return order
        with self._lock:
            order = self._orders.get(key, 0)
            self._orders[key] = order + 1
        return order

    def start_span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        order: Optional[int] = None,
        attributes: Optional[Dict[str, Any]] = None,
        volatile: Optional[Dict[str, Any]] = None,
        start_s: Optional[float] = None,
    ) -> Optional[Span]:
        """Open a span explicitly (paired with :meth:`end_span`).

        Without *trace_id*, the thread's active context supplies both
        the trace and the parent; a tracer with neither returns ``None``
        (spans never float outside a trace).
        """
        if not self.enabled:
            return None
        if trace_id is None:
            ctx = self.current()
            if ctx is None:
                return None
            trace_id = ctx.trace_id
            if parent_id is None:
                parent_id = ctx.span_id
        parent_id = parent_id or ""
        if order is None:
            order = self.next_order(trace_id, parent_id)
        span = Span(
            name,
            trace_id=trace_id,
            span_id=derive_span_id(trace_id, parent_id, name, order),
            parent_id=parent_id,
            order=order,
            start_s=time.time() if start_s is None else start_s,
            attributes=attributes,
            volatile=volatile,
        )
        return span

    def end_span(
        self,
        span: Optional[Span],
        *,
        status: str = "ok",
        end_s: Optional[float] = None,
        sink: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        """Stamp *span*'s end time and file its record (no-op for the
        ``None`` a disabled :meth:`start_span` returned)."""
        if span is None:
            return
        span.end_s = time.time() if end_s is None else end_s
        span.status = status
        self._file(span.to_record(), sink)

    def record_span(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: str = "",
        order: Optional[int] = None,
        start_s: float,
        end_s: float,
        status: str = "ok",
        attributes: Optional[Dict[str, Any]] = None,
        volatile: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """File an already-measured span (e.g. a queue wait whose start
        was stamped before dispatch)."""
        span = self.start_span(
            name,
            trace_id=trace_id,
            parent_id=parent_id,
            order=order,
            attributes=attributes,
            volatile=volatile,
            start_s=start_s,
        )
        if span is not None:
            self.end_span(span, status=status, end_s=end_s)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        attributes: Optional[Dict[str, Any]] = None,
        volatile: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Optional[Span]]:
        """Context manager: a span under the thread's active context.

        No active context (or a disabled tracer) means no span -- the
        body still runs, the hook costs one boolean check.  The span is
        pushed as the active context, so nested ``span()`` calls (and
        :func:`profiled` kernels) become its children.
        """
        if not self.enabled:
            yield None
            return
        ctx = self.current()
        if ctx is None:
            yield None
            return
        span = self.start_span(
            name, attributes=attributes, volatile=volatile
        )
        if span is None:  # pragma: no cover - raced disable
            yield None
            return
        frames = self._frames()
        frames.append(_Frame(span.context, None))
        status = "ok"
        try:
            yield span
        except BaseException:
            status = "error"
            raise
        finally:
            frames.pop()
            self.end_span(span, status=status)

    def _file(
        self,
        record: Dict[str, Any],
        sink: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        target = sink if sink is not None else self._current_sink()
        if target is not None:
            target.append(record)
            return
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(record)

    def add_records(
        self, records: Sequence[Mapping[str, Any]]
    ) -> None:
        """File span records shipped back from a worker -- into the
        thread's active sink if any, so a coordinator that itself runs
        under a capture forwards them outward."""
        sink = self._current_sink()
        if sink is not None:
            sink.extend(dict(record) for record in records)
            return
        with self._lock:
            for record in records:
                if len(self._spans) >= self.max_spans:
                    self.dropped += 1
                    continue
                self._spans.append(dict(record))

    def drain(self) -> List[Dict[str, Any]]:
        """Take every filed span record out (order counters stay)."""
        with self._lock:
            records, self._spans = self._spans, []
        return records

    # ------------------------------------------------------------- reports

    def spans(
        self, trace_id: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        with self._lock:
            records = [dict(r) for r in self._spans]
        if trace_id is not None:
            records = [r for r in records if r["trace_id"] == trace_id]
        return records

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self.spans():
            seen.setdefault(record["trace_id"])
        return list(seen)

    def canonical_json(self, trace_id: Optional[str] = None) -> str:
        """Byte-identical-across-reruns encoding of the collected
        traces (wall-clock fields excluded)."""
        return json.dumps(
            canonical_spans(self.spans(trace_id)),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
        )

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """Write one span record per line; returns the span count."""
        records = self.spans()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def to_chrome(self) -> Dict[str, Any]:
        return chrome_trace(self.spans())


def load_trace_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load span records written by :meth:`Tracer.export_jsonl`."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def chrome_trace(
    records: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """*records* as a Chrome ``trace_event`` JSON object.

    Complete (``"ph": "X"``) events, one logical thread lane per trace
    (lanes numbered in first-seen order and labelled with the trace
    id), loadable in ``chrome://tracing`` and Perfetto.
    """
    lanes: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for record in records:
        trace_id = str(record["trace_id"])
        if trace_id not in lanes:
            lanes[trace_id] = len(lanes) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": lanes[trace_id],
                    "args": {"name": f"trace {trace_id}"},
                }
            )
        args = dict(record.get("attributes", {}))
        args.update(record.get("volatile", {}))
        args.update(
            {
                "trace_id": trace_id,
                "span_id": record["span_id"],
                "parent_id": record.get("parent_id", ""),
                "status": record.get("status", "ok"),
            }
        )
        events.append(
            {
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": float(record["start_s"]) * 1e6,
                "dur": max(
                    0.0,
                    (float(record["end_s"]) - float(record["start_s"]))
                    * 1e6,
                ),
                "pid": 1,
                "tid": lanes[trace_id],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------- registry

_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer (starts disabled)."""
    return _TRACER


def enable_tracing() -> Tracer:
    """Enable the process-wide tracer (idempotent)."""
    _TRACER.enable()
    return _TRACER


def disable_tracing() -> Tracer:
    _TRACER.disable()
    return _TRACER


def profiled(name: Optional[str] = None) -> Callable:
    """Decorator: run every call of the wrapped function inside a span
    named *name* (default ``module.qualname``).

    The span opens only when the process-wide tracer is enabled and the
    calling thread has an active trace context; otherwise the wrapper
    costs one ``enabled`` flag read per call.  The flag is read at call
    time, so a worker process that enables its tracer per task (the
    :class:`~repro.exec.ParallelEvaluator` envelope) traces its kernels
    no matter when it was forked.
    """

    def decorate(fn: Callable) -> Callable:
        label = name or f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _TRACER.enabled:
                return fn(*args, **kwargs)
            with _TRACER.span(label):
                return fn(*args, **kwargs)

        wrapper.__profiled_name__ = label
        return wrapper

    return decorate


__all__ = [
    "Span",
    "TraceContext",
    "TraceSlots",
    "Tracer",
    "VOLATILE_SPAN_FIELDS",
    "canonical_spans",
    "chrome_trace",
    "derive_span_id",
    "derive_trace_id",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "load_trace_jsonl",
    "profiled",
]
