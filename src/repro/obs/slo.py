"""Declarative SLOs evaluated as multi-window burn rates.

A service-level objective here is a :class:`SLOSpec` -- "p99 latency
under 50 ms", "error rate under 1%", "availability at least 99%",
"cache hit rate at least 40%" -- and the :class:`SLOEvaluator` turns a
:class:`~repro.obs.recorder.FlightRecorder`'s sample ring into alert
state for each one.

The alerting model is the standard multi-window burn rate: each spec
names several look-back windows (a short one for detection speed, a
long one for noise rejection), the evaluator differences the cumulative
counter/histogram samples at each window's edge against the newest
sample, and a spec breaches only when its error budget is burning at
``burn_threshold``\\ x or faster in **every** window simultaneously.  A
single slow request spikes the short window but not the long one (no
alert); a sustained regression burns both (alert); recovery drains the
short window first and clears the alert while the long window is still
digesting the incident.

Burn rate is "fraction of error budget consumed per unit of budget
allowed", normalized so 1.0 means "exactly at objective":

- ``p99_latency``: budget is the 1% of requests allowed over the
  latency target; burn is the windowed fraction over target / 0.01,
  estimated from ``serve.latency_s`` histogram-bucket deltas via
  :func:`repro.obs.stats.bucket_fraction_above`.
- ``error_rate``: burn is windowed failure fraction / target.
- ``availability``: burn is windowed (1 - availability) / (1 - target),
  where availability counts completed against completed+failed+rejected.
- ``cache_hit``: a floor; burn is windowed (target - hit rate) / target.

State transitions write ``slo.breach`` / ``slo.recovered`` events to
the run ledger, and a spec that names a *workload* drives the owning
:class:`~repro.serve.cluster.ShardCluster`'s per-workload circuit
breaker: a breach records enough failures to trip the breaker open
(shedding load for the breaker's recovery window), a recovery records a
success to close it again.  That closes the loop from observed burn
rate back into admission control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ValidationError
from repro.obs.ledger import get_ledger
from repro.obs.stats import bucket_fraction_above, bucket_percentile

#: Supported objective kinds.
OBJECTIVES = ("p99_latency", "error_rate", "availability", "cache_hit")

#: Budget fraction backing the p99 latency objective: 1% of requests
#: may exceed the latency target before the budget burns at 1.0x.
P99_BUDGET = 0.01


@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    *target* is the objective value: a latency bound in seconds for
    ``p99_latency``, a maximum fraction for ``error_rate``, a minimum
    fraction for ``availability``/``cache_hit``.  *windows* are
    look-back horizons in seconds, shortest to longest; *workload*
    optionally binds breaches to that workload's cluster breaker.
    """

    name: str
    objective: str
    target: float
    windows: Tuple[float, ...] = (1.0, 5.0)
    burn_threshold: float = 1.0
    workload: Optional[str] = None

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValidationError(
                f"unknown SLO objective {self.objective!r}; "
                f"expected one of {OBJECTIVES}"
            )
        if not self.windows:
            raise ValidationError("SLO spec needs at least one window")
        if any(w <= 0 for w in self.windows):
            raise ValidationError("SLO windows must be positive seconds")
        if self.target < 0:
            raise ValidationError("SLO target must be >= 0")
        if self.objective in ("error_rate",) and self.target <= 0:
            raise ValidationError(
                "error_rate target must be > 0 (it is the error budget)"
            )
        if self.objective in ("availability",) and not (
            0.0 <= self.target < 1.0 or self.target == 1.0
        ):
            raise ValidationError("availability target must be in [0, 1]")
        if self.burn_threshold <= 0:
            raise ValidationError("burn_threshold must be > 0")

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "objective": self.objective,
            "target": self.target,
            "windows": list(self.windows),
            "burn_threshold": self.burn_threshold,
            "workload": self.workload,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SLOSpec":
        try:
            return cls(
                name=str(data["name"]),
                objective=str(data["objective"]),
                target=float(data["target"]),
                windows=tuple(
                    float(w) for w in data.get("windows", (1.0, 5.0))
                ),
                burn_threshold=float(data.get("burn_threshold", 1.0)),
                workload=data.get("workload"),
            )
        except ValidationError:
            raise
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad SLO spec {data!r}: {exc!r}") from exc


def _counter_delta(
    latest: Mapping[str, Any], edge: Mapping[str, Any], name: str
) -> float:
    return float(latest["counters"].get(name, 0.0)) - float(
        edge["counters"].get(name, 0.0)
    )


def _hist_delta(
    latest: Mapping[str, Any], edge: Mapping[str, Any], name: str
) -> Optional[Tuple[List[float], List[int]]]:
    new = latest.get("histograms", {}).get(name)
    if new is None:
        return None
    old = edge.get("histograms", {}).get(name)
    bounds = list(new["bounds"])
    counts = list(new["counts"])
    if old is not None and list(old["bounds"]) == bounds:
        counts = [
            int(n) - int(o) for n, o in zip(counts, old["counts"])
        ]
    return bounds, [max(c, 0) for c in counts]


class SLOEvaluator:
    """Evaluate :class:`SLOSpec` burn rates over recorder samples.

    Stateless per call except the per-spec ok/breached latch that
    drives ``slo.breach``/``slo.recovered`` transition events and the
    optional cluster breaker coupling.
    """

    def __init__(
        self,
        specs: Sequence[SLOSpec],
        cluster: Optional[Any] = None,
    ) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValidationError("SLO spec names must be unique")
        self.specs = list(specs)
        self.cluster = cluster
        self._breached: Dict[str, bool] = {
            spec.name: False for spec in self.specs
        }

    # ---------------------------------------------------------- windows

    @staticmethod
    def _window_edges(
        samples: Sequence[Mapping[str, Any]], windows: Sequence[float]
    ) -> Dict[float, Mapping[str, Any]]:
        """The oldest sample inside each look-back window."""
        latest_ts = float(samples[-1]["ts"])
        edges: Dict[float, Mapping[str, Any]] = {}
        for window in windows:
            cutoff = latest_ts - window
            edge = samples[0]
            for sample in samples:
                if float(sample["ts"]) >= cutoff:
                    edge = sample
                    break
            edges[window] = edge
        return edges

    def _burn(
        self,
        spec: SLOSpec,
        latest: Mapping[str, Any],
        edge: Mapping[str, Any],
    ) -> Dict[str, float]:
        """One window's burn rate and observed value for *spec*."""
        if spec.objective == "p99_latency":
            hist = _hist_delta(latest, edge, "serve.latency_s")
            if hist is None or sum(hist[1]) == 0:
                return {"value": 0.0, "burn": 0.0}
            bounds, counts = hist
            over = bucket_fraction_above(bounds, counts, spec.target)
            p99 = bucket_percentile(bounds, counts, 99.0)
            return {"value": p99, "burn": over / P99_BUDGET}
        if spec.objective == "error_rate":
            failed = _counter_delta(latest, edge, "serve.failed")
            done = failed + _counter_delta(
                latest, edge, "serve.completed"
            )
            rate = failed / done if done > 0 else 0.0
            return {"value": rate, "burn": rate / spec.target}
        if spec.objective == "availability":
            completed = _counter_delta(latest, edge, "serve.completed")
            bad = _counter_delta(
                latest, edge, "serve.failed"
            ) + _counter_delta(latest, edge, "serve.rejected")
            total = completed + bad
            avail = completed / total if total > 0 else 1.0
            budget = 1.0 - spec.target
            if budget <= 0.0:
                burn = 0.0 if avail >= 1.0 else float("inf")
            else:
                burn = (1.0 - avail) / budget
            return {"value": avail, "burn": burn}
        # cache_hit floor
        hits = _counter_delta(latest, edge, "serve.cache_hits")
        served = (
            hits
            + _counter_delta(latest, edge, "serve.deduped")
            + _counter_delta(latest, edge, "serve.computed")
        )
        rate = hits / served if served > 0 else 1.0
        burn = max(spec.target - rate, 0.0) / spec.target
        return {"value": rate, "burn": burn}

    # --------------------------------------------------------- evaluate

    def evaluate(
        self, samples: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Evaluate every spec against *samples* (oldest first).

        Returns one status record per spec -- name, objective, per-
        window burns, overall state -- and emits transition events /
        breaker actions for state changes.
        """
        statuses: List[Dict[str, Any]] = []
        for spec in self.specs:
            status: Dict[str, Any] = {
                "name": spec.name,
                "objective": spec.objective,
                "target": spec.target,
                "workload": spec.workload,
                "windows": {},
                "state": "ok",
            }
            if samples:
                edges = self._window_edges(list(samples), spec.windows)
                burning_all = True
                for window in spec.windows:
                    result = self._burn(
                        spec, samples[-1], edges[window]
                    )
                    status["windows"][window] = result
                    if result["burn"] < spec.burn_threshold:
                        burning_all = False
                breached = burning_all
            else:
                breached = False
            status["state"] = "breached" if breached else "ok"
            self._transition(spec, breached, status)
            statuses.append(status)
        return statuses

    def _transition(
        self, spec: SLOSpec, breached: bool, status: Dict[str, Any]
    ) -> None:
        was = self._breached[spec.name]
        if breached == was:
            return
        self._breached[spec.name] = breached
        ledger = get_ledger()
        burns = {
            str(window): round(result["burn"], 6)
            for window, result in status["windows"].items()
        }
        if breached:
            ledger.event(
                "slo.breach",
                slo=spec.name,
                objective=spec.objective,
                target=spec.target,
                burns=burns,
            )
            self._drive_breaker(spec, open_breaker=True)
        else:
            ledger.event(
                "slo.recovered",
                slo=spec.name,
                objective=spec.objective,
                target=spec.target,
                burns=burns,
            )
            self._drive_breaker(spec, open_breaker=False)

    def _drive_breaker(self, spec: SLOSpec, *, open_breaker: bool) -> None:
        """Couple a workload-bound spec into the cluster's admission
        control: breach trips the workload breaker open (load is shed
        until its recovery window), recovery records a success."""
        if self.cluster is None or spec.workload is None:
            return
        try:
            breaker = self.cluster.breaker(spec.workload)
        except Exception:
            return
        if open_breaker:
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
        else:
            breaker.record_success()

    def breached(self) -> List[str]:
        """Names of specs currently latched breached."""
        return [
            name for name, state in self._breached.items() if state
        ]


def evaluate_slos(
    specs: Sequence[SLOSpec],
    samples: Sequence[Mapping[str, Any]],
    cluster: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    """One-shot evaluation of *specs* over *samples* (fresh evaluator,
    so no transition events from prior state)."""
    return SLOEvaluator(specs, cluster=cluster).evaluate(samples)


__all__ = [
    "OBJECTIVES",
    "P99_BUDGET",
    "SLOEvaluator",
    "SLOSpec",
    "evaluate_slos",
]
