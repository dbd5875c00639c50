"""Execute campaign graphs on the exec/serve spine.

:class:`GraphRunner` walks a :class:`~repro.campaign.graph.
CampaignGraph` layer by topological layer.  Every independent
:class:`~repro.campaign.graph.EvalNode` in a layer batches onto one
backend -- the suite-wide ``parallel=``/``cache=`` engine, through the
request path the service uses too (:mod:`repro.exec.requests`:
sharding, content-addressed caching, crash degradation
and never-cached errors apply for free), or a live
:class:`~repro.serve.EvaluationService` -- while reductions fold in the
coordinator.  Per-node validation gates run on every result;
a gate failure consumes the node's
:class:`~repro.resilience.ResiliencePolicy` backtracking budget
(perturbed-seed re-runs, implementation fallback) before the node is
declared failed.  A :class:`~repro.resilience.CheckpointStore` makes
whole campaigns resumable mid-graph, and execution order is
deterministic -- fixed layer order, insertion order within layers --
so traces, ledgers and float reductions are byte-identical across
serial, pooled and served runs.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.graph import (
    CampaignGraph,
    EvalNode,
    GraphNode,
    ReduceNode,
    TaskNode,
    resolve_refs,
    run_named_reduce,
)
from repro.core.api import RunResult, request_digest
from repro.core.errors import ReproError, ValidationError
from repro.exec.parallel import CacheLike, EvaluatorLike, make_evaluator
from repro.exec.requests import evaluate_batch, read_record
from repro.obs.trace import TraceSlots
from repro.resilience import ResiliencePolicy

#: Deterministic per-process trace placement for campaign roots (same
#: role as the serve tier's per-digest slots).
_TRACE_OCCURRENCES = TraceSlots("campaign|")


def _task_node_call(task: Tuple) -> Any:
    """Run one :class:`TaskNode` callable (module-level: picklable)."""
    fn, payload = task
    return fn(payload)


@dataclass
class NodeResult:
    """Outcome of one graph node."""

    name: str
    kind: str
    status: str = "ok"
    value: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 1
    backtracks: int = 0
    resumed: bool = False
    wall_time_s: float = 0.0
    gate_failures: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class CampaignRunReport:
    """One :meth:`GraphRunner.run`'s worth of node outcomes."""

    graph: str
    results: Dict[str, NodeResult] = field(default_factory=dict)
    layers: List[List[str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results.values())

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {
            "nodes": len(self.results), "ok": 0, "error": 0,
            "skipped": 0, "resumed": 0, "backtracks": 0,
        }
        for result in self.results.values():
            counts[result.status] = counts.get(result.status, 0) + 1
            counts["resumed"] += int(result.resumed)
            counts["backtracks"] += result.backtracks
        return counts

    def value(self, name: str) -> Any:
        """The named node's result value; raises on error/skip so
        callers never consume half-campaigns silently."""
        try:
            result = self.results[name]
        except KeyError:
            raise ValidationError(
                f"campaign {self.graph!r} has no node {name!r}"
            ) from None
        if not result.ok:
            raise ValidationError(
                f"campaign node {name!r} is {result.status}"
                + (f": {result.error}" if result.error else "")
            )
        return result.value

    def to_json(self) -> Dict[str, Any]:
        """Summary form (CLI ``status`` / ``--out``)."""
        return {
            "graph": self.graph,
            "ok": self.ok,
            "counts": self.counts(),
            "layers": self.layers,
            "nodes": {
                name: {
                    "kind": r.kind,
                    "status": r.status,
                    "resumed": r.resumed,
                    "attempts": r.attempts,
                    "backtracks": r.backtracks,
                    "error": r.error,
                    "gate_failures": list(r.gate_failures),
                }
                for name, r in self.results.items()
            },
        }


class GraphRunner:
    """Run campaign graphs over the suite's execution backends.

    *parallel*/*cache* follow the suite-wide contract (see
    :mod:`repro.core.api`); *service* routes :class:`EvalNode` batches
    through a live :class:`~repro.serve.EvaluationService` instead
    (admission control, micro-batching, dedup).  *checkpoint* persists
    completed node results and skips them on re-run; *resilience* is
    the default :class:`~repro.resilience.ResiliencePolicy` for nodes
    that do not declare their own.  *observe* controls the runner's own
    campaign spans/ledger events -- the legacy thin wrappers disable it
    to keep their observable output byte-identical to the bespoke
    loops they replaced.

    :meth:`close` (or the ``with`` block) joins the worker pool of an
    engine the runner built from ``parallel=int|True``; an engine the
    caller passed in is the caller's to close.
    """

    def __init__(
        self,
        parallel: EvaluatorLike = None,
        cache: CacheLike = None,
        service: Optional[Any] = None,
        checkpoint: Optional[Any] = None,
        resilience: Optional[ResiliencePolicy] = None,
        observe: bool = True,
    ) -> None:
        self.engine = make_evaluator(parallel, cache)
        self._owns_engine = self.engine is not parallel
        self.service = service
        self.checkpoint = checkpoint
        self.resilience = resilience
        self.observe = observe

    def close(self) -> None:
        if self.engine is not None and self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "GraphRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ---------------------------------------------------------------- run

    def run(self, graph: CampaignGraph) -> CampaignRunReport:
        from repro.obs.ledger import get_ledger
        from repro.obs.trace import get_tracer

        layers = graph.schedule()
        report = CampaignRunReport(graph=graph.name, layers=layers)
        ledger = get_ledger()
        tracer = get_tracer()
        node_order = {
            node.name: index for index, node in enumerate(graph.nodes)
        }

        root = None
        if self.observe and tracer.enabled:
            trace_id, _, _ = _TRACE_OCCURRENCES.place(graph.name)
            root = tracer.start_span(
                "campaign",
                trace_id=trace_id,
                parent_id="",
                order=0,
                attributes={"graph": graph.name, "nodes": len(graph)},
            )
        if self.observe:
            ledger.event(
                "campaign.started",
                graph=graph.name,
                nodes=len(graph),
                layers=len(layers),
            )

        status = "ok"
        try:
            with ExitStack() as stack:
                if root is not None:
                    stack.enter_context(tracer.activate(root.context))
                for index, layer in enumerate(layers):
                    self._run_layer(graph, layer, index, report, node_order)
        except BaseException:
            status = "error"
            raise
        finally:
            if self.checkpoint is not None:
                self.checkpoint.flush()
            if root is not None:
                tracer.end_span(root, status=status)
            if self.observe:
                counts = report.counts()
                ledger.event(
                    "campaign.finished",
                    graph=graph.name,
                    status=status,
                    ok=counts["ok"],
                    errors=counts["error"],
                    skipped=counts["skipped"],
                    resumed=counts["resumed"],
                )
        return report

    # -------------------------------------------------------------- layers

    def _run_layer(
        self,
        graph: CampaignGraph,
        layer: List[str],
        layer_index: int,
        report: CampaignRunReport,
        node_order: Dict[str, int],
    ) -> None:
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        with ExitStack() as stack:
            if self.observe and tracer.enabled:
                span = tracer.start_span(
                    "campaign.layer",
                    order=layer_index,
                    attributes={"layer": layer_index, "nodes": len(layer)},
                )
                if span is not None:
                    stack.callback(tracer.end_span, span)
                    stack.enter_context(tracer.activate(span.context))
            self._dispatch_layer(graph, layer, report, node_order)

    def _dispatch_layer(
        self,
        graph: CampaignGraph,
        layer: List[str],
        report: CampaignRunReport,
        node_order: Dict[str, int],
    ) -> None:
        ready: List[GraphNode] = []
        for name in layer:
            node = graph.node(name)
            if self._skip_for_failed_deps(node, report):
                continue
            if self._restore_from_checkpoint(node, report):
                continue
            ready.append(node)

        # Batch the registered-workload evaluations of this layer onto
        # one backend call; everything else runs in the coordinator (or
        # engine-mapped for picklable task nodes).
        evals = [n for n in ready if isinstance(n, EvalNode)]
        dispatched = self._dispatch_evals(evals, report)
        mapped_tasks = self._dispatch_tasks(
            [
                n for n in ready
                if isinstance(n, TaskNode) and not n.local
            ],
            report,
        )
        for node in ready:
            if isinstance(node, EvalNode):
                self._finish_eval(node, dispatched[node.name], report)
            elif isinstance(node, TaskNode):
                self._finish_task(node, mapped_tasks, report)
            else:
                self._finish_reduce(node, report)

    # ---------------------------------------------------- skip / checkpoint

    def _skip_for_failed_deps(
        self, node: GraphNode, report: CampaignRunReport
    ) -> bool:
        failed = [
            dep
            for dep in node.dependencies()
            if not report.results[dep].ok
        ]
        if not failed:
            return False
        if isinstance(node, ReduceNode) and node.allow_failed_deps:
            return False
        result = NodeResult(
            name=node.name,
            kind=node.kind,
            status="skipped",
            error=f"upstream failed: {', '.join(failed)}",
        )
        self._record(node, result)
        report.results[node.name] = result
        return True

    def _node_key(
        self, node: GraphNode, report: CampaignRunReport
    ) -> Optional[str]:
        if isinstance(node, EvalNode):
            config = self._resolved_config(node, report)
            digest = request_digest(
                node.workload, config, node.seed, node.impl
            )
            return f"{node.name}|{digest}"
        if isinstance(node, TaskNode):
            return node.key or node.name
        return None  # reductions are cheap folds; recompute on resume

    def _restore_from_checkpoint(
        self, node: GraphNode, report: CampaignRunReport
    ) -> bool:
        if self.checkpoint is None:
            return False
        key = self._node_key(node, report)
        if key is None or key not in self.checkpoint:
            return False
        record = self.checkpoint.get(key)
        if isinstance(node, EvalNode):
            value: Any = RunResult.from_json(record)
        elif isinstance(node, TaskNode) and node.from_checkpoint is not None:
            value = node.from_checkpoint(record)
        elif set(record) == {"value"}:
            value = record["value"]
        else:
            value = record
        result = NodeResult(
            name=node.name, kind=node.kind, value=value, resumed=True
        )
        self._record(node, result)
        report.results[node.name] = result
        return True

    def _save_checkpoint(
        self, node: GraphNode, result: NodeResult, report: CampaignRunReport
    ) -> None:
        if self.checkpoint is None or not result.ok or result.resumed:
            return
        key = self._node_key(node, report)
        if key is None:
            return
        if isinstance(node, EvalNode):
            record = result.value.to_json()
        elif isinstance(node, TaskNode) and node.to_checkpoint is not None:
            record = node.to_checkpoint(result.value)
        elif isinstance(result.value, dict):
            record = result.value
        else:
            record = {"value": result.value}
        self.checkpoint.save(key, record)
        from repro.obs.ledger import get_ledger

        get_ledger().event("checkpoint.saved", cell=key)

    # ------------------------------------------------------------ eval path

    def _resolved_config(
        self, node: EvalNode, report: CampaignRunReport
    ) -> Dict[str, Any]:
        upstream = {
            dep: report.results[dep].value
            for dep in node.dependencies()
            if dep in report.results and report.results[dep].ok
        }
        return resolve_refs(dict(node.config), upstream)

    def _policy_for(self, node: GraphNode) -> Optional[ResiliencePolicy]:
        return getattr(node, "resilience", None) or self.resilience

    def _service_trace_ctx(self):
        """The campaign-layer trace context to stitch service-dispatched
        evaluations under, or ``None`` when tracing is off."""
        if not self.observe:
            return None
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return None
        return tracer.current()

    def _dispatch_evals(
        self, nodes: List[EvalNode], report: CampaignRunReport
    ) -> Dict[str, RunResult]:
        """Evaluate a layer's EvalNodes as one batch; returns results
        keyed by node name."""
        if not nodes:
            return {}
        results = self._evaluate(
            [
                (node, self._resolved_config(node, report), node.seed,
                 node.impl)
                for node in nodes
            ]
        )
        return {node.name: result for node, result in zip(nodes, results)}

    def _evaluate(
        self, calls: List[Tuple[EvalNode, Dict[str, Any], int, Optional[str]]]
    ) -> List[RunResult]:
        """Evaluate ``(node, config, seed, impl)`` calls as one batch on
        the runner's backend: the service, or the shared request path
        over the engine (a plain in-process loop without one)."""
        if self.service is not None:
            # Under tracing the layer span is this thread's active
            # context; handing it to the service stitches every node's
            # request trace under the campaign trace -- across the
            # cluster router and process-shard boundary too.
            trace_ctx = self._service_trace_ctx()
            futures = [
                self.service.submit(
                    node.workload, config, seed=seed, impl=impl,
                    block=True, trace_ctx=trace_ctx,
                )
                for node, config, seed, impl in calls
            ]
            results = [future.result() for future in futures]
            for (node, *_), result in zip(calls, results):
                # A service always captures failures; a node that
                # asked not to aborts here, as on the engine path.
                if not result.ok and not node.capture_errors:
                    raise ReproError(
                        f"node {node.name!r} failed: "
                        f"{result.error_type}: {result.error}"
                    )
            return results
        tasks = []
        keys = []
        for node, config, seed, impl in calls:
            policy = self._policy_for(node)
            backoff = policy.backoff if policy is not None else None
            if backoff is not None and backoff.max_attempts < 2:
                backoff = None  # a plain call: no retry ledger events
            tasks.append(
                (node.workload, config, seed, impl, backoff, None,
                 node.capture_errors, None)
            )
            keys.append(request_digest(node.workload, config, seed, impl))
        return [
            RunResult.from_json(read_record(record)[0])
            for record in evaluate_batch(self.engine, tasks, keys)
        ]

    def _finish_eval(
        self,
        node: EvalNode,
        result: RunResult,
        report: CampaignRunReport,
    ) -> None:
        policy = self._policy_for(node)
        failures = self._gate_failures(node, result)
        backtracks = 0
        while failures and policy is not None \
                and backtracks < policy.max_backtracks:
            backtracks += 1
            seed = node.seed + backtracks * policy.seed_step
            impl = node.impl
            if (
                policy.fallback_impl is not None
                and backtracks == policy.max_backtracks
            ):
                impl = policy.fallback_impl
            self._note_backtrack(node, backtracks, seed, impl)
            config = self._resolved_config(node, report)
            (result,) = self._evaluate([(node, config, seed, impl)])
            failures = self._gate_failures(node, result)

        if failures:
            outcome = NodeResult(
                name=node.name,
                kind=node.kind,
                status="error",
                value=result,
                error="; ".join(failures),
                error_type="GateFailure",
                attempts=result.attempts,
                backtracks=backtracks,
                wall_time_s=result.wall_time_s,
                gate_failures=tuple(failures),
            )
        elif result.status != "ok":
            outcome = NodeResult(
                name=node.name,
                kind=node.kind,
                status="error",
                value=result,
                error=result.error,
                error_type=result.error_type,
                attempts=result.attempts,
                backtracks=backtracks,
                wall_time_s=result.wall_time_s,
            )
        else:
            outcome = NodeResult(
                name=node.name,
                kind=node.kind,
                value=result,
                attempts=result.attempts,
                backtracks=backtracks,
                wall_time_s=result.wall_time_s,
            )
        self._record(node, outcome)
        report.results[node.name] = outcome
        self._save_checkpoint(node, outcome, report)

    # ------------------------------------------------------------ task path

    def _dispatch_tasks(
        self, nodes: List[TaskNode], report: CampaignRunReport
    ) -> Dict[str, Any]:
        """Engine-map the picklable task nodes of a layer; values (or
        captured exceptions) keyed by node name."""
        if not nodes or self.engine is None:
            return {}
        tasks = [
            (
                node.fn,
                resolve_refs(node.payload, self._upstream(node, report)),
            )
            for node in nodes
        ]
        values = self.engine.map(
            _task_node_call, tasks, keys=[n.key for n in nodes]
        )
        return dict(zip((n.name for n in nodes), values))

    def _upstream(
        self, node: GraphNode, report: CampaignRunReport
    ) -> Dict[str, Any]:
        return {
            dep: report.results[dep].value
            for dep in node.dependencies()
            if dep in report.results and report.results[dep].ok
        }

    def _finish_task(
        self,
        node: TaskNode,
        mapped: Dict[str, Any],
        report: CampaignRunReport,
    ) -> None:
        start = time.perf_counter()
        if node.name in mapped:
            value = mapped[node.name]
            outcome = NodeResult(name=node.name, kind=node.kind, value=value)
        else:
            payload = resolve_refs(
                node.payload, self._upstream(node, report)
            )
            try:
                value = node.fn(payload)
            except Exception as exc:
                if not node.capture_errors:
                    raise
                outcome = NodeResult(
                    name=node.name,
                    kind=node.kind,
                    status="error",
                    error=str(exc),
                    error_type=type(exc).__name__,
                    wall_time_s=time.perf_counter() - start,
                )
                self._record(node, outcome)
                report.results[node.name] = outcome
                return
            outcome = NodeResult(
                name=node.name,
                kind=node.kind,
                value=value,
                wall_time_s=time.perf_counter() - start,
            )
        failures = self._gate_failures(node, outcome.value)
        if failures:
            outcome.status = "error"
            outcome.error = "; ".join(failures)
            outcome.error_type = "GateFailure"
            outcome.gate_failures = tuple(failures)
        self._record(node, outcome)
        report.results[node.name] = outcome
        self._save_checkpoint(node, outcome, report)

    # ---------------------------------------------------------- reduce path

    def _finish_reduce(
        self, node: ReduceNode, report: CampaignRunReport
    ) -> None:
        deps = {
            dep: report.results[dep] for dep in node.dependencies()
        }
        start = time.perf_counter()
        try:
            if node.fn is not None:
                value = node.fn(deps)
            else:
                ok_values = [r.value for r in deps.values() if r.ok]
                value = run_named_reduce(node.op, node.params, ok_values)
        except Exception as exc:
            outcome = NodeResult(
                name=node.name,
                kind=node.kind,
                status="error",
                error=str(exc),
                error_type=type(exc).__name__,
                wall_time_s=time.perf_counter() - start,
            )
            self._record(node, outcome)
            report.results[node.name] = outcome
            return
        outcome = NodeResult(
            name=node.name,
            kind=node.kind,
            value=value,
            wall_time_s=time.perf_counter() - start,
        )
        failures = self._gate_failures(node, value)
        if failures:
            outcome.status = "error"
            outcome.error = "; ".join(failures)
            outcome.error_type = "GateFailure"
            outcome.gate_failures = tuple(failures)
        self._record(node, outcome)
        report.results[node.name] = outcome

    # ------------------------------------------------------------ obs hooks

    def _gate_failures(self, node: GraphNode, value: Any) -> List[str]:
        gate = getattr(node, "gate", None)
        if gate is None:
            return []
        failures = gate.failures(value)
        if failures and self.observe:
            from repro.obs.ledger import get_ledger

            get_ledger().event(
                "gate.failed", node=node.name, failures=len(failures)
            )
        return failures

    def _note_backtrack(
        self, node: GraphNode, attempt: int, seed: int, impl: Optional[str]
    ) -> None:
        if not self.observe:
            return
        from repro.obs.ledger import get_ledger

        get_ledger().event(
            "node.backtrack",
            node=node.name,
            attempt=attempt,
            seed=seed,
            impl=impl,
        )

    def _record(self, node: GraphNode, result: NodeResult) -> None:
        if not self.observe:
            return
        from repro.obs.ledger import get_ledger

        get_ledger().event(
            "node.done",
            node=node.name,
            kind=node.kind,
            status=result.status,
            resumed=result.resumed,
            backtracks=result.backtracks,
        )


__all__ = [
    "CampaignRunReport",
    "GraphRunner",
    "NodeResult",
]
