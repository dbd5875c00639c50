"""Critical-path analysis over stitched request traces.

A stitched trace answers "where did this request's wall time go?" --
but only after someone decomposes the span tree into phases.  This
module does that decomposition once, with one phase taxonomy shared by
the CLI (``repro obs critical-path``), the top-N report (``repro obs
top``) and the regression-attribution comparison:

- ``admission_wait``: ``queue.wait`` spans -- time parked in the
  service queue before a batch picked the request up;
- ``batch_wait``: ``batch`` span time not covered by worker execution
  -- co-batching overhead (waiting for batch-mates, merge bookkeeping);
- ``eval``: ``worker`` spans -- the actual evaluation, including its
  bridged kernel sub-spans;
- ``transport``: ``transport.*`` / ``shm.*`` spans -- wire and
  shared-memory traffic (ephemeral spans, so they appear in raw
  exports and here, never in canonical identity);
- ``cache``: ``cache.*`` spans;
- ``route_merge``: ``cluster.request`` time not covered by the shard's
  ``request`` span -- router dispatch, response pump, replay overhead;
- ``other``: whatever the root measured that no phase claims.

The unit of analysis is a *request subtree*: every ``cluster.request``
span, plus every ``request`` span not under one, is a root, so a
campaign trace carrying dozens of dispatched evaluations under one
campaign root decomposes into dozens of request breakdowns -- same
taxonomy as a standalone serve trace.

Durations are taken from the recorded ``duration_s`` fields (volatile:
real measurements, not part of canonical trace identity), so breakdown
numbers vary run to run even when the trace *structure* is
byte-identical -- which is exactly the split the observability plane
promises: identity is deterministic, timings are honest.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Phase keys, in report order.
PHASES = (
    "admission_wait",
    "batch_wait",
    "cache",
    "transport",
    "eval",
    "route_merge",
    "other",
)


def _phase_of(name: str) -> Optional[str]:
    if name == "queue.wait":
        return "admission_wait"
    if name == "worker":
        return "eval"
    if name.startswith("cache."):
        return "cache"
    if name.startswith("transport.") or name.startswith("shm."):
        return "transport"
    return None


def _duration(record: Mapping[str, Any]) -> float:
    return float(record.get("duration_s", 0.0) or 0.0)


def _subtree(
    root: Mapping[str, Any],
    children: Mapping[Any, List[Mapping[str, Any]]],
) -> List[Mapping[str, Any]]:
    out: List[Mapping[str, Any]] = []
    stack = [root]
    while stack:
        record = stack.pop()
        out.append(record)
        key = (str(record["trace_id"]), str(record["span_id"]))
        stack.extend(children.get(key, ()))
    return out


def _breakdown(
    root: Mapping[str, Any],
    records: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Phase decomposition of one request subtree rooted at *root*."""
    is_cluster = root["name"] == "cluster.request"
    phases: Dict[str, float] = {phase: 0.0 for phase in PHASES}
    batch_s = 0.0
    request_s = 0.0
    request_root: Optional[Mapping[str, Any]] = None
    for record in records:
        name = record["name"]
        phase = _phase_of(name)
        if phase is not None:
            phases[phase] += _duration(record)
        elif name == "batch":
            batch_s += _duration(record)
        elif name == "request":
            request_s += _duration(record)
            if request_root is None:
                request_root = record
    phases["batch_wait"] = max(batch_s - phases["eval"], 0.0)
    if is_cluster:
        phases["route_merge"] = max(_duration(root) - request_s, 0.0)
    total = _duration(root)
    accounted = sum(phases[p] for p in PHASES if p != "other")
    phases["other"] = max(total - accounted, 0.0)
    attributes = root.get("attributes") or {}
    if not attributes.get("workload") and request_root is not None:
        attributes = request_root.get("attributes") or {}
    return {
        "trace_id": str(root["trace_id"]),
        "span_id": str(root["span_id"]),
        "workload": attributes.get("workload", ""),
        "status": root.get("status", "ok"),
        "total_s": total,
        "phases": phases,
    }


def request_breakdowns(
    records: Sequence[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Every request subtree's breakdown, in stable (trace, span)
    order.  Roots are ``cluster.request`` spans plus ``request`` spans
    not parented under one (direct-service submissions)."""
    # Parent links are scoped per trace: span ids are derived from
    # their trace id so they cannot collide in practice, but synthetic
    # or hand-edited records should not cross-link either.
    children: Dict[Any, List[Mapping[str, Any]]] = {}
    cluster_ids = set()
    for record in records:
        key = (
            str(record["trace_id"]),
            str(record.get("parent_id", "")),
        )
        children.setdefault(key, []).append(record)
        if record["name"] == "cluster.request":
            cluster_ids.add(str(record["span_id"]))
    roots = [
        record
        for record in records
        if record["name"] == "cluster.request"
        or (
            record["name"] == "request"
            and str(record.get("parent_id", "")) not in cluster_ids
        )
    ]
    roots.sort(
        key=lambda r: (str(r["trace_id"]), str(r["span_id"]))
    )
    return [
        _breakdown(root, _subtree(root, children)) for root in roots
    ]


def trace_breakdown(
    records: Sequence[Mapping[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Breakdown of the single request in *records* (one trace's
    spans), or ``None`` when it holds no request subtree."""
    breakdowns = request_breakdowns(records)
    return breakdowns[0] if breakdowns else None


def critical_path_report(
    records: Sequence[Mapping[str, Any]], top: int = 10
) -> Dict[str, Any]:
    """Breakdown of every request subtree in *records*, plus
    aggregates: ``{"requests": N, "phase_totals_s", "phase_means_s",
    "top"}`` where ``top`` lists the *top* slowest requests, slowest
    first (ties broken by ids so the report order is stable)."""
    breakdowns = request_breakdowns(records)
    breakdowns.sort(
        key=lambda b: (-b["total_s"], b["trace_id"], b["span_id"])
    )
    totals = {phase: 0.0 for phase in PHASES}
    for breakdown in breakdowns:
        for phase in PHASES:
            totals[phase] += breakdown["phases"][phase]
    count = len(breakdowns)
    return {
        "requests": count,
        "phase_totals_s": totals,
        "phase_means_s": {
            phase: (totals[phase] / count if count else 0.0)
            for phase in PHASES
        },
        "top": breakdowns[: max(int(top), 0)],
    }


def compare_reports(
    baseline: Mapping[str, Any], current: Mapping[str, Any]
) -> Dict[str, Any]:
    """Attribute a latency regression between two critical-path
    reports: per-phase mean deltas, sorted by how much each phase
    moved, plus the single phase that explains the most of it."""
    base_means = baseline.get("phase_means_s", {})
    cur_means = current.get("phase_means_s", {})
    deltas = {
        phase: float(cur_means.get(phase, 0.0))
        - float(base_means.get(phase, 0.0))
        for phase in PHASES
    }
    ranked = sorted(
        deltas.items(), key=lambda item: (-item[1], item[0])
    )
    total_delta = sum(deltas.values())
    culprit, culprit_delta = ranked[0]
    return {
        "total_delta_s": total_delta,
        "phase_deltas_s": dict(deltas),
        "ranked": [
            {"phase": phase, "delta_s": delta}
            for phase, delta in ranked
        ],
        "culprit": culprit if culprit_delta > 0 else None,
    }


__all__ = [
    "PHASES",
    "compare_reports",
    "critical_path_report",
    "request_breakdowns",
    "trace_breakdown",
]
