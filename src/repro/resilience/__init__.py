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

from repro.resilience.breaker import (
    CircuitBreaker,
    CircuitOpenError,
)
from repro.resilience.chaos import ChaosEvent, ChaosPolicy
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import FaultInjector, FaultModel, FaultyStorage
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import (
    BackoffPolicy,
    Deadline,
    RunOutcome,
    resilient_run,
)

__all__ = [
    "BackoffPolicy",
    "ChaosEvent",
    "ChaosPolicy",
    "CheckpointStore",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "FaultInjector",
    "FaultModel",
    "FaultyStorage",
    "ResiliencePolicy",
    "RunOutcome",
    "resilient_run",
]
