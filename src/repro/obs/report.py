"""Human-readable views over traces, the run ledger and the metrics
registry.

Backs the ``repro obs`` CLI: ``show <trace_id>`` renders one trace as
an indented span tree (durations, status, attributes) followed by the
trace's ledger events; ``summary`` aggregates span durations by name
across all traces through the shared :func:`repro.obs.stats.summary`.
Backs ``repro profile`` too: :func:`render_profile` aggregates spans by
name path and appends the registry's histograms and counters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.obs.stats import summary


def _format_attrs(record: Mapping[str, Any]) -> str:
    attrs = dict(record.get("attributes", {}))
    attrs.update(record.get("volatile", {}))
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"  [{inner}]"


def render_trace(
    spans: Sequence[Mapping[str, Any]],
    events: Sequence[Mapping[str, Any]] = (),
) -> str:
    """One trace as an indented tree, children ordered by span order.

    Spans whose parent is missing from the set (e.g. filtered exports)
    render as roots rather than disappearing.
    """
    if not spans:
        return "(no spans)"
    ids = {s["span_id"] for s in spans}
    children: Dict[str, List[Mapping[str, Any]]] = {}
    roots: List[Mapping[str, Any]] = []
    for span in spans:
        parent = span.get("parent_id") or ""
        if parent and parent in ids:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)

    def order_key(span: Mapping[str, Any]) -> Any:
        return (span.get("order", 0), span["span_id"])

    lines: List[str] = []

    def walk(span: Mapping[str, Any], depth: int) -> None:
        duration_ms = float(span.get("duration_s", 0.0)) * 1000.0
        status = span.get("status", "ok")
        marker = "" if status == "ok" else f"  !{status}"
        lines.append(
            f"{'  ' * depth}- {span['name']}  "
            f"{duration_ms:.3f} ms{marker}{_format_attrs(span)}"
        )
        for child in sorted(children.get(span["span_id"], []),
                            key=order_key):
            walk(child, depth + 1)

    for root in sorted(roots, key=order_key):
        walk(root, 0)

    if events:
        lines.append("events:")
        for event in events:
            extras = {
                k: v
                for k, v in event.items()
                if k not in ("event", "trace_id", "ts", "seq", "parent_id")
            }
            detail = "".join(
                f" {k}={extras[k]}" for k in sorted(extras)
            )
            lines.append(f"  * {event['event']}{detail}")
    return "\n".join(lines)


def summarize_spans(
    spans: Sequence[Mapping[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """Per-span-name duration summaries (count/mean/max/p50/p95/p99
    seconds) across every trace in *spans*."""
    by_name: Dict[str, List[float]] = {}
    for span in spans:
        by_name.setdefault(str(span["name"]), []).append(
            float(span.get("duration_s", 0.0))
        )
    return {name: summary(by_name[name]) for name in sorted(by_name)}


def render_summary(
    spans: Sequence[Mapping[str, Any]],
    events: Sequence[Mapping[str, Any]] = (),
) -> str:
    """The ``repro obs summary`` table: traces, spans per name with
    duration percentiles, event counts."""
    trace_ids: Dict[str, None] = {}
    for span in spans:
        trace_ids.setdefault(str(span["trace_id"]))
    lines = [
        f"traces: {len(trace_ids)}   spans: {len(spans)}   "
        f"events: {len(events)}"
    ]
    table = summarize_spans(spans)
    if table:
        lines.append(
            f"{'span':<28} {'count':>6} {'mean ms':>9} "
            f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9} {'max ms':>9}"
        )
        for name, stats in table.items():
            lines.append(
                f"{name:<28} {stats['count']:>6.0f} "
                f"{stats['mean'] * 1e3:>9.3f} "
                f"{stats['p50'] * 1e3:>9.3f} "
                f"{stats['p95'] * 1e3:>9.3f} "
                f"{stats['p99'] * 1e3:>9.3f} "
                f"{stats['max'] * 1e3:>9.3f}"
            )
    counts: Dict[str, int] = {}
    for event in events:
        counts[str(event["event"])] = counts.get(str(event["event"]), 0) + 1
    for name in sorted(counts):
        lines.append(f"event {name}: {counts[name]}")
    return "\n".join(lines)


def span_path_totals(
    spans: Sequence[Mapping[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """Span durations aggregated by name path (``root/child/...``):
    calls, total, mean and max seconds per path, sorted by path."""
    by_id = {(s["trace_id"], s["span_id"]): s for s in spans}
    paths: Dict[Tuple[str, str], str] = {}

    def path_of(span: Mapping[str, Any]) -> str:
        key = (span["trace_id"], span["span_id"])
        if key not in paths:
            parent = by_id.get(
                (span["trace_id"], span.get("parent_id") or "")
            )
            name = str(span["name"])
            paths[key] = (
                name if parent is None else f"{path_of(parent)}/{name}"
            )
        return paths[key]

    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = float(span.get("duration_s", 0.0))
        entry = totals.setdefault(
            path_of(span), {"calls": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["max_s"] = max(entry["max_s"], duration)
    for entry in totals.values():
        entry["mean_s"] = entry["total_s"] / entry["calls"]
    return dict(sorted(totals.items()))


def render_profile(
    spans: Sequence[Mapping[str, Any]], snapshot: Mapping[str, Any]
) -> str:
    """The ``repro profile`` table: one row per span name path
    (indented by depth), then one row per registry histogram, then the
    registry's counters."""
    rows = [("timer", "calls", "total (s)", "mean (s)", "max (s)")]
    for path, stat in span_path_totals(spans).items():
        label = "  " * path.count("/") + path.rsplit("/", 1)[-1]
        rows.append((label, str(stat["calls"]), f"{stat['total_s']:.6f}",
                     f"{stat['mean_s']:.6f}", f"{stat['max_s']:.6f}"))
    for name, hist in snapshot.get("histograms", {}).items():
        rows.append((name, str(hist["count"]), f"{hist['sum']:.6f}",
                     f"{hist['mean']:.6f}", f"{hist['max'] or 0.0:.6f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    title = "profile: repro"
    lines = [title, "-" * len(title)]
    for idx, row in enumerate(rows):
        lines.append("  ".join(
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(row, widths))
        ))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    counters = snapshot.get("counters", {})
    if counters:
        lines.extend(["", "counters:"])
        lines.extend(
            f"  {name}: {value:.15g}" for name, value in counters.items()
        )
    return "\n".join(lines)


def render_top(
    report: Mapping[str, Any],
    samples: Sequence[Mapping[str, Any]] = (),
) -> str:
    """The ``repro obs top`` view: slowest requests with their
    critical-path phase split, plus latest recorder gauges when a
    flight sample set is available."""
    from repro.obs.critical import PHASES

    lines = [f"requests: {report.get('requests', 0)}"]
    means = report.get("phase_means_s", {})
    if report.get("requests"):
        mean_line = "  ".join(
            f"{phase}={float(means.get(phase, 0.0)) * 1e3:.3f}ms"
            for phase in PHASES
        )
        lines.append(f"phase means: {mean_line}")
    top = report.get("top", [])
    if top:
        lines.append(
            f"{'trace':<18} {'workload':<16} {'total ms':>9}  phases"
        )
        for entry in top:
            phases = entry.get("phases", {})
            dominant = sorted(
                (
                    (phase, float(phases.get(phase, 0.0)))
                    for phase in PHASES
                ),
                key=lambda item: (-item[1], item[0]),
            )[:3]
            split = " ".join(
                f"{phase}={value * 1e3:.3f}ms"
                for phase, value in dominant
                if value > 0.0
            )
            lines.append(
                f"{str(entry['trace_id'])[:16]:<18} "
                f"{str(entry.get('workload', ''))[:16]:<16} "
                f"{float(entry['total_s']) * 1e3:>9.3f}  {split}"
            )
    if samples:
        latest = samples[-1]
        gauges = latest.get("gauges", {})
        if gauges:
            gauge_line = "  ".join(
                f"{name}={gauges[name]:g}" for name in sorted(gauges)
            )
            lines.append(f"gauges: {gauge_line}")
    return "\n".join(lines)


def select_trace(
    spans: Sequence[Mapping[str, Any]], trace_id: str
) -> List[Dict[str, Any]]:
    """Spans of one trace, accepting unique trace-id prefixes."""
    exact = [dict(s) for s in spans if s["trace_id"] == trace_id]
    if exact:
        return exact
    matches = sorted(
        {
            str(s["trace_id"])
            for s in spans
            if str(s["trace_id"]).startswith(trace_id)
        }
    )
    if len(matches) == 1:
        return [dict(s) for s in spans if s["trace_id"] == matches[0]]
    return []


__all__: List[str] = [
    "render_profile",
    "render_summary",
    "render_top",
    "render_trace",
    "select_trace",
    "span_path_totals",
    "summarize_spans",
]
