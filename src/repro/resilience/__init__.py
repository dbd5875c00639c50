"""Cross-cutting resilience: fault injection, bounded retry, checkpoints.

The production-grade counterpart to the happy-path simulators: this
package injects the non-ideal behavior the paper's thrusts are actually
about (device faults, link degradation, storage hiccups, engine
dropout) and gives long sweeps the machinery to survive it -- bounded
retry with exponential backoff, structured deadlines carrying partial
stats, and JSON checkpoint/resume.

Entry points:

- :class:`FaultInjector` / :class:`FaultModel` -- seeded, key-addressed
  fault models for the IMC, SPARTA, hetero and SCF thrusts;
- :func:`resilient_run` + :class:`BackoffPolicy` -- retry harness for
  :class:`~repro.core.errors.TransientFault`;
- :class:`ResiliencePolicy` -- the bundled recovery knob (in-place
  backoff retries plus campaign-graph backtracking: perturbed-seed
  re-runs and implementation fallback) shared by campaigns and
  :class:`~repro.campaign.GraphRunner` nodes;
- :class:`Deadline` -- cycle/wall-clock budgets raising structured
  :class:`~repro.core.errors.SimulationTimeout`;
- :class:`CheckpointStore` -- atomic JSON checkpoint/resume for
  campaign and DSE sweeps, salvaging damaged stores on load;
- :class:`CircuitBreaker` / :class:`CircuitOpenError` -- per-key
  closed/open/half-open load shedding for repeatedly failing work,
  with ledger/metrics-visible transitions;
- :class:`ChaosPolicy` / :class:`ChaosEvent` -- seeded, deterministic
  fault-injection schedules (shard kills, delays, queue-pressure
  bursts) for the sharded serving tier's chaos harness.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.resilience.breaker": ("CircuitBreaker", "CircuitOpenError"),
    "repro.resilience.chaos": ("ChaosEvent", "ChaosPolicy"),
    "repro.resilience.checkpoint": ("CheckpointStore",),
    "repro.resilience.faults": (
        "FaultInjector",
        "FaultModel",
        "FaultyStorage",
    ),
    "repro.resilience.policy": ("ResiliencePolicy",),
    "repro.resilience.retry": (
        "BackoffPolicy",
        "Deadline",
        "RunOutcome",
        "resilient_run",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
