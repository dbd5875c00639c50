"""Declarative campaign DAGs: nodes, edges, gates and schedules.

A :class:`CampaignGraph` describes a whole experimental campaign as
data: :class:`EvalNode` vertices are registered-:class:`~repro.core.api.
Workload` evaluations (content-addressed by
:func:`~repro.core.api.request_digest`), :class:`TaskNode` vertices run
arbitrary pure callables (the escape hatch the legacy bespoke loops
migrate through), and :class:`ReduceNode` vertices fold upstream
results (Pareto fronts, argmin, aggregation).  Edges are declared by
name -- explicitly through ``deps`` or implicitly by embedding a
:class:`ResultRef` inside a node's config/payload, which the runner
replaces with the referenced upstream value at dispatch time.

The graph itself is inert and serializable (``to_json`` /
``from_json`` for Eval/Reduce graphs); :class:`repro.campaign.runner.
GraphRunner` executes it, batching each topological layer onto the
existing exec/serve spine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import ValidationError
from repro.resilience.policy import ResiliencePolicy

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

#: Named reductions available to JSON-declared :class:`ReduceNode`\ s.
REDUCE_OPS = ("collect", "pareto", "argmin", "mean")


@dataclass(frozen=True)
class ResultRef:
    """A data-flow edge: *this value comes from an upstream node*.

    Embed a ``ResultRef`` as a value inside an :class:`EvalNode` config
    (or :class:`TaskNode` payload) and the runner substitutes the named
    node's result before dispatch.  *field* is an optional dotted path
    into the upstream value (``"metrics.best_latency_s"`` digs through
    a :class:`~repro.core.api.RunResult`); without it the whole value
    flows through.  JSON spelling: ``{"$from": "node", "field": ...}``.
    """

    node: str
    field: Optional[str] = None

    def resolve(self, value: Any) -> Any:
        if self.field is None:
            return value
        for part in self.field.split("."):
            if isinstance(value, Mapping):
                try:
                    value = value[part]
                except KeyError:
                    raise ValidationError(
                        f"ResultRef({self.node!r}): no key {part!r} in "
                        f"upstream value"
                    ) from None
            else:
                try:
                    value = getattr(value, part)
                except AttributeError:
                    raise ValidationError(
                        f"ResultRef({self.node!r}): upstream value has "
                        f"no attribute {part!r}"
                    ) from None
        return value

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"$from": self.node}
        if self.field is not None:
            payload["field"] = self.field
        return payload


def _find_refs(value: Any) -> List[ResultRef]:
    """Every :class:`ResultRef` embedded anywhere inside *value*."""
    if isinstance(value, ResultRef):
        return [value]
    if isinstance(value, Mapping):
        return [r for v in value.values() for r in _find_refs(v)]
    if isinstance(value, (list, tuple)):
        return [r for v in value for r in _find_refs(v)]
    return []


def resolve_refs(value: Any, upstream: Mapping[str, Any]) -> Any:
    """*value* with every embedded :class:`ResultRef` substituted by
    the referenced upstream result (*upstream* maps node name ->
    value)."""
    if isinstance(value, ResultRef):
        return value.resolve(upstream[value.node])
    if isinstance(value, Mapping):
        return {k: resolve_refs(v, upstream) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(resolve_refs(v, upstream) for v in value)
    if isinstance(value, list):
        return [resolve_refs(v, upstream) for v in value]
    return value


def _encode_refs(value: Any) -> Any:
    """JSON form of *value* with refs spelled ``{"$from": ...}``."""
    if isinstance(value, ResultRef):
        return value.to_json()
    if isinstance(value, Mapping):
        return {k: _encode_refs(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_refs(v) for v in value]
    return value


def _decode_refs(value: Any) -> Any:
    if isinstance(value, Mapping):
        if "$from" in value:
            return ResultRef(
                node=str(value["$from"]), field=value.get("field")
            )
        return {k: _decode_refs(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_refs(v) for v in value]
    return value


_REQUIRED = object()


def _spec_field(
    entry: Mapping[str, Any],
    index: int,
    key: str,
    convert: Callable[[Any], Any] = str,
    default: Any = _REQUIRED,
) -> Any:
    """``convert(entry[key])`` for node *index* of a JSON campaign
    spec; a missing or malformed field raises a ValidationError naming
    the node index and the field."""
    if key in entry:
        value = entry[key]
    elif default is _REQUIRED:
        raise ValidationError(f"campaign node {index}: missing {key!r}")
    else:
        value = default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"campaign node {index}: bad {key!r} value {value!r} ({exc})"
        ) from exc


def _spec_names(value: Any) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(name, str) for name in value
    ):
        raise TypeError("deps must be a list of node names")
    return tuple(value)


def _spec_config(value: Any) -> Dict[str, Any]:
    if not isinstance(value, Mapping):
        raise TypeError("config must be an object")
    return _decode_refs(dict(value))


@dataclass(frozen=True)
class Gate:
    """Per-node validation: what a result must look like to count.

    *expect_metrics* names metrics that must be present;
    *predicates* are ``(metric, op, value)`` triples over the metric
    values (ops: ``< <= > >= == !=``); *require_ok* additionally
    rejects error-status results.  *check* is an optional callable
    escape hatch returning a failure message (or ``None`` to pass) --
    callable gates cannot be serialized to JSON.

    A gate failure on a node with backtracking budget
    (:class:`~repro.resilience.ResiliencePolicy`) triggers a perturbed
    re-run; otherwise the node fails.
    """

    expect_metrics: Tuple[str, ...] = ()
    predicates: Tuple[Tuple[str, str, Any], ...] = ()
    require_ok: bool = True
    check: Optional[Callable[[Any], Optional[str]]] = None

    def __post_init__(self) -> None:
        for metric, op, _ in self.predicates:
            if op not in _OPS:
                raise ValidationError(
                    f"unknown gate op {op!r} for metric {metric!r} "
                    f"(choose from {sorted(_OPS)})"
                )

    def failures(self, value: Any) -> List[str]:
        """Every way *value* fails this gate (empty = pass)."""
        problems: List[str] = []
        metrics = _metrics_view(value)
        if self.require_ok and getattr(value, "status", "ok") != "ok":
            problems.append(
                f"status is {value.status!r}: {value.error}"
            )
        for name in self.expect_metrics:
            if metrics is None or name not in metrics:
                problems.append(f"missing expected metric {name!r}")
        for name, op, bound in self.predicates:
            if metrics is None or name not in metrics:
                problems.append(
                    f"predicate metric {name!r} is absent"
                )
                continue
            if not _OPS[op](metrics[name], bound):
                problems.append(
                    f"{name} = {metrics[name]!r} violates "
                    f"{name} {op} {bound!r}"
                )
        if self.check is not None:
            message = self.check(value)
            if message:
                problems.append(str(message))
        return problems

    def to_json(self) -> Dict[str, Any]:
        if self.check is not None:
            raise ValidationError(
                "gates with callable check= cannot be serialized"
            )
        return {
            "expect_metrics": list(self.expect_metrics),
            "predicates": [list(p) for p in self.predicates],
            "require_ok": self.require_ok,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "Gate":
        return cls(
            expect_metrics=tuple(payload.get("expect_metrics", ())),
            predicates=tuple(
                (str(m), str(op), v)
                for m, op, v in payload.get("predicates", ())
            ),
            require_ok=bool(payload.get("require_ok", True)),
        )


def _metrics_view(value: Any) -> Optional[Mapping[str, Any]]:
    """The metric mapping a gate evaluates against: ``.metrics`` of a
    RunResult-shaped object, or the value itself when it is a dict."""
    metrics = getattr(value, "metrics", None)
    if isinstance(metrics, Mapping):
        return metrics
    if isinstance(value, Mapping):
        return value
    return None


@dataclass(frozen=True)
class EvalNode:
    """One registered-workload evaluation vertex.

    Content-addressed: the runner keys caching, in-batch dedup and
    checkpointing on ``request_digest(workload, resolved_config, seed,
    impl)``, so identical requests anywhere in the fleet share one
    computation.  *config* may embed :class:`ResultRef` values; the
    referenced nodes become implicit dependencies.  With
    *capture_errors* (default) an evaluation failure becomes an
    error-status result instead of aborting the campaign.
    """

    name: str
    workload: str
    config: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    impl: Optional[str] = None
    deps: Tuple[str, ...] = ()
    gate: Optional[Gate] = None
    resilience: Optional[ResiliencePolicy] = None
    capture_errors: bool = True

    kind = "eval"

    def dependencies(self) -> List[str]:
        seen: Dict[str, None] = dict.fromkeys(self.deps)
        for ref in _find_refs(self.config):
            seen.setdefault(ref.node, None)
        return list(seen)


@dataclass(frozen=True)
class TaskNode:
    """An arbitrary pure-callable vertex (module-level *fn* required
    for process-pool dispatch; set *local* for closures, which then run
    in the coordinator).

    The legacy bespoke loops ride through here: *payload* (which may
    embed :class:`ResultRef` values) is passed to ``fn(payload)``.
    *key* names the checkpoint record (defaults to the node name);
    *to_checkpoint* / *from_checkpoint* adapt the value to/from its
    JSON checkpoint form when the raw value is not itself a JSON dict.
    """

    name: str
    fn: Callable[[Any], Any]
    payload: Any = None
    deps: Tuple[str, ...] = ()
    key: Optional[str] = None
    gate: Optional[Gate] = None
    resilience: Optional[ResiliencePolicy] = None
    local: bool = False
    to_checkpoint: Optional[Callable[[Any], Dict[str, Any]]] = None
    from_checkpoint: Optional[Callable[[Dict[str, Any]], Any]] = None
    capture_errors: bool = True

    kind = "task"

    def dependencies(self) -> List[str]:
        seen: Dict[str, None] = dict.fromkeys(self.deps)
        for ref in _find_refs(self.payload):
            seen.setdefault(ref.node, None)
        return list(seen)


@dataclass(frozen=True)
class ReduceNode:
    """A pure reduction over upstream node results.

    Either *fn* -- a callable receiving an ordered ``{name:
    NodeResult}`` mapping of the dependencies -- or a named *op* from
    :data:`REDUCE_OPS` with *params*:

    - ``collect``: list of ok dependency values, in dependency order;
    - ``pareto``: ``params={"metrics": [m1, m2]}`` -- the Pareto-
      minimal subset of ok RunResult dependencies over two metrics;
    - ``argmin``: ``params={"metric": m}`` -- the ok dependency value
      with the smallest metric;
    - ``mean``: ``params={"metric": m}`` -- the metric's mean over ok
      dependencies.

    Reductions run in the coordinator (they are cheap folds, not
    evaluations) and are recomputed on resume.  With
    *allow_failed_deps* the reduction still runs when some
    dependencies failed; otherwise it is skipped.
    """

    name: str
    deps: Tuple[str, ...] = ()
    fn: Optional[Callable[[Mapping[str, Any]], Any]] = None
    op: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    allow_failed_deps: bool = False
    gate: Optional[Gate] = None

    kind = "reduce"

    def __post_init__(self) -> None:
        if (self.fn is None) == (self.op is None):
            raise ValidationError(
                f"reduce node {self.name!r} needs exactly one of fn= "
                "or op="
            )
        if self.op is not None and self.op not in REDUCE_OPS:
            raise ValidationError(
                f"unknown reduce op {self.op!r} "
                f"(choose from {REDUCE_OPS})"
            )

    def dependencies(self) -> List[str]:
        return list(dict.fromkeys(self.deps))


GraphNode = Union[EvalNode, TaskNode, ReduceNode]


class CampaignGraph:
    """An ordered, validated collection of campaign nodes.

    Insertion order is part of the contract: it breaks ties inside a
    topological layer, which makes schedules -- and therefore traces,
    ledgers and float reductions -- deterministic.
    """

    def __init__(self, name: str = "campaign") -> None:
        if not name:
            raise ValidationError("campaign graphs need a name")
        self.name = name
        self._nodes: Dict[str, GraphNode] = {}

    # ------------------------------------------------------------ building

    def add(self, node: GraphNode) -> GraphNode:
        if not node.name:
            raise ValidationError("campaign nodes need a name")
        if node.name in self._nodes:
            raise ValidationError(
                f"duplicate campaign node {node.name!r}"
            )
        self._nodes[node.name] = node
        return node

    def evaluate(self, name: str, workload: str, **kwargs: Any) -> EvalNode:
        """Shorthand: add an :class:`EvalNode`."""
        node = EvalNode(name=name, workload=workload, **kwargs)
        self.add(node)
        return node

    def task(self, name: str, fn: Callable, **kwargs: Any) -> TaskNode:
        """Shorthand: add a :class:`TaskNode`."""
        node = TaskNode(name=name, fn=fn, **kwargs)
        self.add(node)
        return node

    def reduce(self, name: str, **kwargs: Any) -> ReduceNode:
        """Shorthand: add a :class:`ReduceNode`."""
        node = ReduceNode(name=name, **kwargs)
        self.add(node)
        return node

    # ----------------------------------------------------------- inspection

    @property
    def nodes(self) -> List[GraphNode]:
        return list(self._nodes.values())

    def node(self, name: str) -> GraphNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise ValidationError(
                f"unknown campaign node {name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    # ----------------------------------------------------------- validation

    def validate(self) -> None:
        """Reject unknown dependencies and cycles (Kahn residue)."""
        for node in self._nodes.values():
            for dep in node.dependencies():
                if dep not in self._nodes:
                    raise ValidationError(
                        f"node {node.name!r} depends on unknown node "
                        f"{dep!r}"
                    )
        layers = self._layers()
        placed = sum(len(layer) for layer in layers)
        if placed != len(self._nodes):
            stuck = sorted(
                set(self._nodes)
                - {name for layer in layers for name in layer}
            )
            raise ValidationError(
                f"campaign graph {self.name!r} has a dependency cycle "
                f"through {stuck}"
            )

    def _layers(self) -> List[List[str]]:
        indegree = {
            name: len(node.dependencies())
            for name, node in self._nodes.items()
        }
        dependents: Dict[str, List[str]] = {n: [] for n in self._nodes}
        for name, node in self._nodes.items():
            for dep in node.dependencies():
                if dep in dependents:
                    dependents[dep].append(name)
        ready = [n for n in self._nodes if indegree[n] == 0]
        layers: List[List[str]] = []
        while ready:
            layers.append(ready)
            following: Dict[str, None] = {}
            for name in ready:
                for child in dependents[name]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        following.setdefault(child, None)
            # Preserve insertion order within the new layer.
            ready = [n for n in self._nodes if n in following]
        return layers

    def schedule(self) -> List[List[str]]:
        """Topological layers of node names; nodes within a layer are
        independent and batch together, ordered by insertion."""
        self.validate()
        return self._layers()

    # -------------------------------------------------------- serialization

    def to_json(self) -> Dict[str, Any]:
        """JSON spec of an Eval/Reduce graph.

        :class:`TaskNode` vertices, callable reductions and callable
        gate checks carry arbitrary Python and cannot be serialized.
        """
        nodes: List[Dict[str, Any]] = []
        for node in self._nodes.values():
            if isinstance(node, TaskNode):
                raise ValidationError(
                    f"task node {node.name!r} cannot be serialized to "
                    "JSON (callable payloads); keep such graphs in .py "
                    "specs"
                )
            if isinstance(node, EvalNode):
                entry: Dict[str, Any] = {
                    "kind": "eval",
                    "name": node.name,
                    "workload": node.workload,
                    "config": _encode_refs(dict(node.config)),
                    "seed": node.seed,
                }
                if node.impl is not None:
                    entry["impl"] = node.impl
                if node.deps:
                    entry["deps"] = list(node.deps)
                if node.resilience is not None:
                    entry["resilience"] = node.resilience.to_json()
                if not node.capture_errors:
                    entry["capture_errors"] = False
            else:
                if node.fn is not None:
                    raise ValidationError(
                        f"reduce node {node.name!r} uses a callable "
                        "fn= and cannot be serialized to JSON"
                    )
                entry = {
                    "kind": "reduce",
                    "name": node.name,
                    "op": node.op,
                    "deps": list(node.deps),
                }
                if node.params:
                    entry["params"] = dict(node.params)
                if node.allow_failed_deps:
                    entry["allow_failed_deps"] = True
            if node.gate is not None:
                entry["gate"] = node.gate.to_json()
            nodes.append(entry)
        return {"name": self.name, "nodes": nodes}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "CampaignGraph":
        if not isinstance(payload, Mapping):
            raise ValidationError("a campaign spec must be a JSON object")
        nodes = payload.get("nodes", ())
        if not isinstance(nodes, (list, tuple)):
            raise ValidationError("campaign spec 'nodes' must be a list")
        graph = cls(name=str(payload.get("name", "campaign")))
        for index, entry in enumerate(nodes):
            if not isinstance(entry, Mapping):
                raise ValidationError(
                    f"campaign node {index}: must be a JSON object"
                )
            try:
                graph.add(_node_from_json(index, entry))
            except ValidationError:
                raise
            except (
                ArithmeticError, AttributeError, LookupError, RecursionError,
                TypeError, ValueError,
            ) as exc:
                raise ValidationError(
                    f"campaign node {index}: {exc!r}"
                ) from exc
        return graph


def _node_from_json(index: int, entry: Mapping[str, Any]) -> GraphNode:
    """One eval or reduce node of a JSON campaign spec."""
    kind = entry.get("kind", "eval")
    gate = Gate.from_json(entry["gate"]) if "gate" in entry else None
    if kind == "eval":
        resilience = None
        if "resilience" in entry:
            resilience = ResiliencePolicy.from_json(entry["resilience"])
        return EvalNode(
            name=_spec_field(entry, index, "name"),
            workload=_spec_field(entry, index, "workload"),
            config=_spec_field(entry, index, "config", _spec_config, {}),
            seed=_spec_field(entry, index, "seed", int, 0),
            impl=entry.get("impl"),
            deps=_spec_field(entry, index, "deps", _spec_names, ()),
            gate=gate,
            resilience=resilience,
            capture_errors=bool(entry.get("capture_errors", True)),
        )
    if kind == "reduce":
        return ReduceNode(
            name=_spec_field(entry, index, "name"),
            op=_spec_field(entry, index, "op"),
            params=dict(entry.get("params", {})),
            deps=_spec_field(entry, index, "deps", _spec_names, ()),
            allow_failed_deps=bool(entry.get("allow_failed_deps", False)),
            gate=gate,
        )
    raise ValidationError(f"campaign node {index}: unknown kind {kind!r}")


def run_named_reduce(
    op: str,
    params: Mapping[str, Any],
    values: Sequence[Any],
) -> Any:
    """Apply one of :data:`REDUCE_OPS` to ok upstream *values*."""
    import numpy as np

    if op == "collect":
        return list(values)
    if op == "mean":
        metric = str(params["metric"])
        if not values:
            return 0.0
        return float(
            np.mean([_metric_of(v, metric) for v in values])
        )
    if op == "argmin":
        metric = str(params["metric"])
        if not values:
            raise ValidationError("argmin over an empty dependency set")
        return min(values, key=lambda v: _metric_of(v, metric))
    if op == "pareto":
        metrics = [str(m) for m in params["metrics"]]
        if len(metrics) != 2:
            raise ValidationError(
                "pareto reduce needs exactly two metrics"
            )
        if not values:
            return []
        from repro.core.pareto import pareto_indices

        objs = np.array(
            [[_metric_of(v, m) for m in metrics] for v in values],
            dtype=float,
        )
        keep = set(pareto_indices(objs))
        return [v for i, v in enumerate(values) if i in keep]
    raise ValidationError(f"unknown reduce op {op!r}")


def _metric_of(value: Any, metric: str) -> Any:
    view = _metrics_view(value)
    if view is None or metric not in view:
        raise ValidationError(
            f"reduce metric {metric!r} absent from upstream value"
        )
    return view[metric]


__all__ = [
    "CampaignGraph",
    "EvalNode",
    "Gate",
    "GraphNode",
    "REDUCE_OPS",
    "ReduceNode",
    "ResultRef",
    "TaskNode",
    "resolve_refs",
    "run_named_reduce",
]
