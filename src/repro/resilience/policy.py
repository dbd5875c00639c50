"""The one resilience knob shared by campaigns and graph nodes.

Retry behaviour used to be configured by passing a bare
:class:`~repro.resilience.retry.BackoffPolicy` to each entry point
(``run_resilient_campaign(policy=...)``, ``DSERunner.compare(policy=
...)``), which left no room for the recovery strategies a campaign
graph needs beyond in-place retry: re-running a failed node with a
perturbed seed, or falling back to a different kernel implementation.
:class:`ResiliencePolicy` bundles all of it into one value object that
every graph node and every campaign entry point accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.errors import ValidationError
from repro.resilience.retry import BackoffPolicy


@dataclass(frozen=True)
class ResiliencePolicy:
    """How one unit of work survives failure.

    *backoff* bounds in-place retries of transient faults (see
    :func:`~repro.resilience.resilient_run`).  The remaining fields
    drive :class:`~repro.campaign.GraphRunner` backtracking when a
    node's validation gate fails even on a successful evaluation:
    up to *max_backtracks* re-runs with the node seed advanced by
    *seed_step* per attempt, switching to *fallback_impl* (when set)
    on the final backtrack.
    """

    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    max_backtracks: int = 0
    seed_step: int = 1
    fallback_impl: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_backtracks < 0:
            raise ValidationError("max_backtracks must be >= 0")
        if self.seed_step < 0:
            raise ValidationError("seed_step must be >= 0")

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "backoff": {
                "max_attempts": self.backoff.max_attempts,
                "base_delay_s": self.backoff.base_delay_s,
                "factor": self.backoff.factor,
                "max_delay_s": self.backoff.max_delay_s,
                "jitter": self.backoff.jitter,
            },
            "max_backtracks": self.max_backtracks,
            "seed_step": self.seed_step,
        }
        if self.fallback_impl is not None:
            payload["fallback_impl"] = self.fallback_impl
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ResiliencePolicy":
        backoff = BackoffPolicy(**dict(payload.get("backoff", {})))
        return cls(
            backoff=backoff,
            max_backtracks=int(payload.get("max_backtracks", 0)),
            seed_step=int(payload.get("seed_step", 1)),
            fallback_impl=payload.get("fallback_impl"),
        )
