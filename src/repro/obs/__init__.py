"""repro.obs -- the observability plane: traces, metrics, ledger,
flight recorder, SLOs.

Two stores, one enablement policy (disabled by default, single boolean
check on every hot path):

- :mod:`repro.obs.trace` -- the record store: one bounded list of two
  record kinds, each with its own switch.  *Span* records are
  deterministic end-to-end request traces with explicit context
  propagation across thread and process boundaries, exported as JSONL
  or Chrome ``trace_event`` JSON (the :func:`profiled` kernel
  decorator opens their spans).  *Event* records are the run ledger:
  run/fault/retry/cache/admission/checkpoint events keyed by trace id
  and parent span, with watcher hooks for crash-triggered consumers;
  :mod:`repro.obs.ledger` is their view (``get_ledger()``,
  ``ledger.jsonl``, the canonical per-trace form);
- :mod:`repro.obs.metrics` -- process-wide Counter/Gauge/Histogram
  registry with mergeable fixed-bucket histograms (serve counters,
  cache/jit timings) behind one ``snapshot()``, with Prometheus
  text exposition.

:mod:`repro.obs.envelope` carries both across a thread or process
boundary -- one record list plus metrics: a worker runs under
:func:`capture`, the coordinator hands what comes back to
:func:`absorb`.

Layered on the stores (no extra enablement state of their own, and
imported on first use of one of their names, so a process that only
records -- a process shard -- never loads them):

- :mod:`repro.obs.recorder` -- a bounded flight-recorder ring of
  periodic metric/gauge samples, dumped automatically on shard
  death;
- :mod:`repro.obs.slo` -- declarative SLO specs evaluated as
  multi-window burn rates over recorder samples, coupled into the
  cluster's circuit breakers;
- :mod:`repro.obs.critical` -- critical-path decomposition of
  stitched request traces into admission/batch/transport/eval/route
  phases.

``enable()``/``disable()`` flip the three switches (spans, events,
metrics) together, which is what the ``repro serve --trace-dir`` path
and the tests use.
"""

from repro._lazy import lazy_exports
from repro.obs.envelope import absorb, capture
from repro.obs.ledger import (
    RunLedger,
    disable_ledger,
    enable_ledger,
    get_ledger,
    load_ledger_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
    prometheus_text,
)
from repro.obs.stats import (
    bucket_fraction_above,
    bucket_percentile,
    percentile,
    summary,
)
from repro.obs.trace import (
    Span,
    TraceContext,
    Tracer,
    canonical_spans,
    chrome_trace,
    derive_span_id,
    derive_trace_id,
    disable_tracing,
    enable_tracing,
    get_tracer,
    load_trace_jsonl,
    profiled,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.critical": (
        "compare_reports",
        "critical_path_report",
        "request_breakdowns",
        "trace_breakdown",
    ),
    "repro.obs.recorder": ("FlightRecorder", "load_flight_jsonl"),
    "repro.obs.report": (
        "render_summary",
        "render_top",
        "render_trace",
        "select_trace",
        "summarize_spans",
    ),
    "repro.obs.slo": ("SLOEvaluator", "SLOSpec", "evaluate_slos"),
})


def enable() -> None:
    """Turn on spans, events and metrics together."""
    enable_tracing()
    enable_metrics()
    enable_ledger()


def disable() -> None:
    """Turn spans, events and metrics off (collected data is kept; use
    the stores' ``reset()`` to drop it)."""
    disable_tracing()
    disable_metrics()
    disable_ledger()


__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunLedger",
    "SLOEvaluator",
    "SLOSpec",
    "Span",
    "TraceContext",
    "Tracer",
    "absorb",
    "bucket_fraction_above",
    "bucket_percentile",
    "canonical_spans",
    "capture",
    "chrome_trace",
    "compare_reports",
    "critical_path_report",
    "derive_span_id",
    "derive_trace_id",
    "disable",
    "disable_ledger",
    "disable_metrics",
    "disable_tracing",
    "enable",
    "enable_ledger",
    "enable_metrics",
    "enable_tracing",
    "evaluate_slos",
    "get_ledger",
    "get_metrics",
    "get_tracer",
    "load_flight_jsonl",
    "load_ledger_jsonl",
    "load_trace_jsonl",
    "percentile",
    "profiled",
    "prometheus_text",
    "render_summary",
    "render_top",
    "render_trace",
    "request_breakdowns",
    "select_trace",
    "summarize_spans",
    "summary",
    "trace_breakdown",
]
