"""Unified Workload / RunResult calling convention for every subsystem.

The suite grew one simulator at a time, and each grew its own entry
point and result shape: the HLS flow returns ``SynthesisResult``, the
DSE runner ``ExplorationResult``, the IMC sweep plain dicts, SPARTA
``SimulationStats``, the DNA pipeline ``RetrievalReport``, the hetero
campaign ``CampaignCell``.  Simulator suites only compose when
workloads share a uniform request/result contract, so this module
defines that contract once:

- :class:`Workload` -- the protocol every subsystem adapter implements:
  ``name``, ``space()`` (the configuration vocabulary), and
  ``evaluate(config, *, seed, impl) -> RunResult``;
- :class:`RunResult` -- the one frozen result shape: a metrics dict
  plus seed, content digest, wall time, status and error info, with
  lossless JSON round-tripping and a *canonical* form whose bytes are
  identical for identical evaluations (volatile fields excluded);
- a process-wide **registry** (:func:`register_workload`,
  :func:`get_workload`, :func:`check_workload`,
  :func:`workload_names`) through which :mod:`repro.serve` and any
  future caller address all subsystems uniformly by name; a built-in
  subsystem's adapter is imported on its first use.

The ``parallel=`` / ``cache=`` contract
---------------------------------------

Every batch entry point in the suite -- ``DSERunner.run/compare``,
``repro.hetero.campaign.run_campaign`` / ``run_resilient_campaign``,
``repro.imc.sweep.crossbar_sweep`` / ``sweep_grid`` and
``repro.serve.EvaluationService`` -- accepts the same two optional
kwargs, coerced by :func:`repro.exec.make_evaluator`:

- ``parallel``: ``None``/``False`` for the serial legacy path, ``True``
  for a process pool at CPU count, an ``int`` worker count, or a
  ready-made :class:`~repro.exec.ParallelEvaluator`;
- ``cache``: a :class:`~repro.exec.ResultCache` instance or a path for
  a persistent one; results are memoized by content digest.

Callers guarantee cells are pure functions of their configuration and
derive any randomness from content (config/seed), never from execution
order, so serial, parallel and cache-warmed runs are bit-identical.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.core.errors import ValidationError

_STATUSES = ("ok", "error")

#: RunResult fields excluded from the canonical form: they vary between
#: two otherwise-identical evaluations (timing noise, retry count, which
#: request instance produced them), so equality of evaluations is
#: defined without them.
VOLATILE_FIELDS = ("wall_time_s", "attempts", "trace_id")


@dataclass(frozen=True)
class RunResult:
    """The unified outcome of one workload evaluation.

    *metrics* holds JSON-scalar observables (floats, ints, bools,
    strings); *config_digest* is the content address of the request
    (see :func:`request_digest`), which doubles as the cache key under
    :mod:`repro.serve`.  *status* is ``"ok"`` or ``"error"``; error
    results carry ``error`` / ``error_type`` instead of metrics.
    """

    workload: str
    metrics: Dict[str, Any]
    seed: Optional[int]
    config_digest: str
    wall_time_s: float
    status: str = "ok"
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 1
    #: The trace this evaluation ran under (when tracing was enabled);
    #: volatile, since the same evaluation can serve many traces.
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValidationError(
                f"status must be one of {_STATUSES}, got {self.status!r}"
            )
        if self.attempts < 1:
            raise ValidationError("attempts must be >= 1")
        if self.status == "error" and self.error is None:
            raise ValidationError("error results must carry a message")

    # ------------------------------------------------------------- status

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # ------------------------------------------------------------ JSON forms

    def to_json(self) -> Dict[str, Any]:
        """Lossless JSON-serializable form (round-trips via
        :meth:`from_json`); also the value stored in
        :class:`~repro.exec.ResultCache` by :mod:`repro.serve`.

        Equal to ``dataclasses.asdict(self)``, keys in field order.
        Metrics of plain JSON scalars -- every built-in workload's --
        are immutable, so a shallow ``dict()`` copy suffices; any
        other value takes the deep-copying ``asdict`` path.
        """
        metrics = self.metrics
        if not all(type(v) in PLAIN_SCALARS for v in metrics.values()):
            return dataclasses.asdict(self)
        out = {name: getattr(self, name) for name in _FIELD_NAMES}
        out["metrics"] = dict(metrics)
        return out

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from its :meth:`to_json` form.

        The result owns its ``metrics``: a copy of *payload*'s, shallow
        when every value is a plain JSON scalar and deep otherwise (the
        rule of :meth:`to_json`), so a caller mutating a served result
        cannot reach the record it was built from -- a cache entry
        served without a copy, say.
        """
        unknown = set(payload).difference(_FIELD_NAMES)
        if unknown:
            raise ValidationError(
                f"unknown RunResult fields: {sorted(unknown)}"
            )
        fields = dict(payload)
        if "metrics" in fields:
            metrics = fields["metrics"]
            if type(metrics) is dict and all(
                type(v) in PLAIN_SCALARS for v in metrics.values()
            ):
                fields["metrics"] = dict(metrics)
            else:
                fields["metrics"] = copy_tree(metrics)
        return cls(**fields)

    def canonical_json(self) -> str:
        """Deterministic identity encoding of this evaluation.

        Excludes :data:`VOLATILE_FIELDS` (wall time, retry attempts):
        two evaluations of the same (workload, config, seed, impl) are
        *the same result* and produce byte-identical canonical JSON --
        the property the served-vs-direct equivalence tests assert.
        """
        payload = {
            k: v
            for k, v in self.to_json().items()
            if k not in VOLATILE_FIELDS
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"),
            ensure_ascii=True,
        )

    def same_result(self, other: "RunResult") -> bool:
        """True when *other* is the same evaluation outcome (identity
        compares canonical forms, ignoring volatile fields)."""
        return self.canonical_json() == other.canonical_json()


#: :class:`RunResult` field names in declaration order (the key order
#: of :meth:`RunResult.to_json`).
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(RunResult))

#: JSON scalar types a deep copy may share instead of copying:
#: immutable, and matched by exact type (a subclass may be neither).
PLAIN_SCALARS = frozenset({str, int, float, bool, type(None)})


def copy_tree(value: Any) -> Any:
    """A deep copy of *value* that shares its plain scalars.

    Result records and request configs are JSON trees, which a walk
    over exact ``dict`` / ``list`` nodes copies several times faster
    than ``copy.deepcopy`` and its memo; any other value (a tuple
    holding an ndarray, say) is handed to ``copy.deepcopy``.
    """
    kind = type(value)
    if kind in PLAIN_SCALARS:
        return value
    if kind is dict:
        return {key: copy_tree(item) for key, item in value.items()}
    if kind is list:
        return [copy_tree(item) for item in value]
    return copy.deepcopy(value)


def build_run_result(
    workload: str,
    metrics: Mapping[str, Any],
    *,
    config: Any,
    seed: Optional[int],
    impl: Optional[str] = None,
    wall_time_s: float = 0.0,
    status: str = "ok",
    error: Optional[str] = None,
    error_type: Optional[str] = None,
    attempts: int = 1,
    trace_id: Optional[str] = None,
) -> RunResult:
    """Assemble a :class:`RunResult`, deriving the content digest from
    (workload, config, seed, impl) via :func:`request_digest`."""
    return RunResult(
        workload=workload,
        metrics=dict(metrics),
        seed=seed,
        config_digest=request_digest(workload, config, seed, impl),
        wall_time_s=wall_time_s,
        status=status,
        error=error,
        error_type=error_type,
        attempts=attempts,
        trace_id=trace_id,
    )


def request_digest(
    workload: str,
    config: Any,
    seed: Optional[int],
    impl: Optional[str] = None,
) -> str:
    """Content address of one evaluation request.

    The digest covers the full request identity -- workload name,
    configuration, seed and kernel implementation -- so it is the cache
    key, the dedup key and the ``RunResult.config_digest`` all at once.
    """
    # Imported lazily: repro.exec pulls in the executor stack, which
    # this leaf module must not require at import time.
    from repro.exec.cache import config_digest

    return config_digest(
        {"workload": workload, "config": config, "seed": seed, "impl": impl}
    )


# ---------------------------------------------------------------- protocol


@runtime_checkable
class Workload(Protocol):
    """What every subsystem adapter exposes to uniform callers.

    ``space()`` maps parameter names to the tuple of example choices
    (first choice = the cheap default used by :func:`example_config`);
    ``evaluate`` must be a pure function of ``(config, seed, impl)``:
    same inputs produce a :class:`RunResult` with identical canonical
    JSON, regardless of process, thread or host.
    """

    name: str

    def space(self) -> Dict[str, tuple]:
        """Parameter vocabulary: name -> tuple of accepted choices."""
        ...

    def evaluate(
        self,
        config: Mapping[str, Any],
        *,
        seed: int = 0,
        impl: Optional[str] = None,
    ) -> RunResult:
        """Run one configuration to a :class:`RunResult`."""
        ...


def require_keys(
    workload: str, config: Mapping[str, Any], keys: Tuple[str, ...]
) -> Dict[str, Any]:
    """*config* as a plain dict, once it holds every one of *keys*.

    Adapters call this for the parameters they have no default for, so
    a config missing one fails as a :class:`ValidationError` naming the
    workload and the key instead of a bare ``KeyError``.
    """
    cfg = dict(config)
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ValidationError(
            f"{workload} config is missing required key(s): "
            + ", ".join(repr(key) for key in missing)
        )
    return cfg


def example_config(workload: Workload) -> Dict[str, Any]:
    """The cheapest valid configuration of *workload*: the first choice
    of every parameter in its :meth:`~Workload.space`."""
    return {name: choices[0] for name, choices in workload.space().items()}


# ---------------------------------------------------------------- registry

_REGISTRY: Dict[str, Workload] = {}
_GENERATION = 0

#: The seven built-in workloads, by name, and the adapter module whose
#: import registers each.  A built-in is imported on its first
#: :func:`get_workload`; until then its name is known without any
#: import, so admission checks and :func:`workload_names` stay cheap
#: and a process that only serves cached results imports no subsystem.
_BUILTIN_WORKLOADS: Dict[str, str] = {
    "hls": "repro.hls.workload",
    "dse": "repro.dse.workload",
    "imc-crossbar": "repro.imc.workload",
    "sparta": "repro.sparta.workload",
    "axc-htconv": "repro.axc.workload",
    "dna-pipeline": "repro.dna.workload",
    "hetero-cell": "repro.hetero.workload",
}


def register_workload(workload: Workload, *, replace: bool = False) -> None:
    """Add *workload* to the process-wide registry.

    Names are unique, built-in names included before their adapter
    loads; re-registering a taken name requires ``replace=True`` so
    accidental collisions fail loudly.  A change bumps
    :func:`registry_generation`.

    A built-in adapter registering itself as its module is imported is
    the exception: it never bumps the generation (a forked worker
    resolves a built-in by name on its own), and it yields to a
    workload already registered under its name, so an earlier
    ``replace=True`` override survives the adapter's later import.
    """
    global _GENERATION
    name = getattr(workload, "name", None)
    if not name or not isinstance(name, str):
        raise ValidationError("workloads must carry a non-empty string name")
    current = _REGISTRY.get(name)
    if current is workload:
        return
    builtin = _BUILTIN_WORKLOADS.get(name)
    if not replace and builtin == type(workload).__module__:
        _REGISTRY.setdefault(name, workload)
        return
    if not replace and (current is not None or builtin is not None):
        raise ValidationError(f"workload {name!r} is already registered")
    _REGISTRY[name] = workload
    _GENERATION += 1


def registry_generation() -> int:
    """A counter bumped by every registry change.  Process pools fork
    their workers once; a pool forked at an older generation would not
    know the newer workloads, so its owner replaces it.  Loading a
    built-in adapter is not a change: every process can load it by
    name."""
    return _GENERATION


def ensure_default_workloads() -> None:
    """Import (and thereby register) every built-in adapter at once.

    Idempotent.  Nothing in the serving path needs it: a built-in is
    loaded by its first :func:`get_workload`.
    """
    for module in _BUILTIN_WORKLOADS.values():
        importlib.import_module(module)


def check_workload(name: str) -> None:
    """Raise :class:`ValidationError` unless *name* is a registered or
    built-in workload.  Imports nothing: admission calls this."""
    if name not in _REGISTRY and name not in _BUILTIN_WORKLOADS:
        raise ValidationError(
            f"unknown workload {name!r} (registered: {workload_names()})"
        )


def get_workload(name: str) -> Workload:
    """The workload called *name*, importing its adapter on first use
    if it is a built-in."""
    workload = _REGISTRY.get(name)
    if workload is None:
        check_workload(name)
        importlib.import_module(_BUILTIN_WORKLOADS[name])
        workload = _REGISTRY[name]
    return workload


def workload_names() -> List[str]:
    """Sorted names of every registered or built-in workload."""
    return sorted(_REGISTRY.keys() | _BUILTIN_WORKLOADS.keys())


__all__ = [
    "RunResult",
    "VOLATILE_FIELDS",
    "Workload",
    "build_run_result",
    "check_workload",
    "ensure_default_workloads",
    "example_config",
    "get_workload",
    "register_workload",
    "registry_generation",
    "request_digest",
    "require_keys",
    "workload_names",
]
