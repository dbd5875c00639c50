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
  :func:`get_workload`, :func:`workload_names`) through which
  :mod:`repro.serve` and any future caller address all subsystems
  uniformly by name.

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

import dataclasses
import json
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
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
        :class:`~repro.exec.ResultCache` by :mod:`repro.serve`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "RunResult":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ValidationError(
                f"unknown RunResult fields: {sorted(unknown)}"
            )
        return cls(**dict(payload))

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


def example_config(workload: Workload) -> Dict[str, Any]:
    """The cheapest valid configuration of *workload*: the first choice
    of every parameter in its :meth:`~Workload.space`."""
    return {name: choices[0] for name, choices in workload.space().items()}


# ---------------------------------------------------------------- registry

_REGISTRY: Dict[str, Workload] = {}
_DEFAULTS_LOADED = False
_GENERATION = 0

#: The seven built-in adapter modules; importing each registers its
#: workload(s).  Kept as module paths so registration stays lazy and
#: the core package never hard-imports the subsystems.
_DEFAULT_ADAPTER_MODULES = (
    "repro.hls.workload",
    "repro.dse.workload",
    "repro.imc.workload",
    "repro.sparta.workload",
    "repro.axc.workload",
    "repro.dna.workload",
    "repro.hetero.workload",
)


def register_workload(workload: Workload, *, replace: bool = False) -> None:
    """Add *workload* to the process-wide registry.

    Names are unique; re-registering an existing name requires
    ``replace=True`` so accidental collisions fail loudly.  A change
    bumps :func:`registry_generation`.
    """
    global _GENERATION
    name = getattr(workload, "name", None)
    if not name or not isinstance(name, str):
        raise ValidationError("workloads must carry a non-empty string name")
    if not replace and name in _REGISTRY and _REGISTRY[name] is not workload:
        raise ValidationError(f"workload {name!r} is already registered")
    if _REGISTRY.get(name) is not workload:
        _REGISTRY[name] = workload
        _GENERATION += 1


def registry_generation() -> int:
    """A counter bumped by every registry change.  Process pools fork
    their workers once; a pool forked at an older generation would not
    know the newer workloads, so its owner replaces it."""
    return _GENERATION


def ensure_default_workloads() -> None:
    """Import (and thereby register) the built-in subsystem adapters.

    Idempotent and lazy: worker processes call this before resolving a
    workload by name, so registration survives pickling boundaries.
    """
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    import importlib

    for module in _DEFAULT_ADAPTER_MODULES:
        importlib.import_module(module)
    _DEFAULTS_LOADED = True


def get_workload(name: str) -> Workload:
    """The registered workload called *name* (defaults auto-loaded)."""
    ensure_default_workloads()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown workload {name!r} "
            f"(registered: {sorted(_REGISTRY)})"
        ) from None


def workload_names() -> List[str]:
    """Sorted names of every registered workload."""
    ensure_default_workloads()
    return sorted(_REGISTRY)


__all__ = [
    "RunResult",
    "VOLATILE_FIELDS",
    "Workload",
    "build_run_result",
    "ensure_default_workloads",
    "example_config",
    "get_workload",
    "register_workload",
    "registry_generation",
    "request_digest",
    "workload_names",
]
