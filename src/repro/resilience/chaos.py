"""Seeded, deterministic chaos schedules for fault-tolerance tests.

A chaos run is only evidence if it is reproducible: "the cluster
survived a random kill" proves nothing a rerun can check.
:class:`ChaosPolicy` is therefore pure data -- a tuple of
:class:`ChaosEvent` actions pinned to request indices -- either written
out explicitly (``kill shard 1 at request 8``) or derived from a seed
(:meth:`ChaosPolicy.random`), so every scenario in
``benchmarks/bench_chaos.py`` replays byte-for-byte.

The policy itself injects nothing; the serving cluster (and the
:func:`repro.serve.cluster.run_chaos_campaign` driver) consults
:meth:`ChaosPolicy.actions_at` on every submission and performs the
actions.  Three verbs cover the scenarios the ROADMAP's sharded tier
must survive:

- ``kill``  -- crash one shard (its queue and in-flight work are lost
  and must be recovered by supervisor restart + replay);
- ``delay`` -- stall the submission path for ``delay_s`` (a degraded
  link / slow shard: tail latency must stay bounded);
- ``burst`` -- submit ``copies`` duplicates of the current request
  back-to-back (queue pressure: admission control and dedup must
  absorb it without losing or duplicating results).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.errors import ValidationError

_ACTIONS = ("kill", "delay", "burst")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled injection: *action* fires when the cluster admits
    the ``at_request``-th request (0-based, cluster-wide counter)."""

    at_request: int
    action: str
    shard: int = 0
    delay_s: float = 0.0
    copies: int = 0

    def __post_init__(self) -> None:
        if self.at_request < 0:
            raise ValidationError("at_request must be >= 0")
        if self.action not in _ACTIONS:
            raise ValidationError(
                f"action must be one of {_ACTIONS}, got {self.action!r}"
            )
        if self.action == "delay" and self.delay_s <= 0:
            raise ValidationError("delay events need delay_s > 0")
        if self.action == "burst" and self.copies < 1:
            raise ValidationError("burst events need copies >= 1")


@dataclass(frozen=True)
class ChaosPolicy:
    """An ordered, deterministic injection schedule.

    ``seed`` documents provenance for schedules built by
    :meth:`random`; hand-written schedules leave it at 0.
    """

    events: Tuple[ChaosEvent, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def actions_at(self, index: int) -> List[ChaosEvent]:
        """Every event scheduled for the *index*-th admission, in
        schedule order."""
        return [e for e in self.events if e.at_request == index]

    @property
    def kill_count(self) -> int:
        return sum(1 for e in self.events if e.action == "kill")

    def to_json(self) -> List[Dict]:
        return [
            {
                "at_request": e.at_request,
                "action": e.action,
                "shard": e.shard,
                "delay_s": e.delay_s,
                "copies": e.copies,
            }
            for e in self.events
        ]

    # ------------------------------------------------------- constructors

    @classmethod
    def kill_shard(cls, at_request: int, shard: int) -> "ChaosPolicy":
        """The canonical scenario: one shard dies mid-campaign."""
        return cls(events=(ChaosEvent(at_request, "kill", shard=shard),))

    @classmethod
    def random(
        cls,
        seed: int,
        num_requests: int,
        num_shards: int,
        *,
        kills: int = 1,
        delays: int = 2,
        bursts: int = 1,
        max_delay_s: float = 0.05,
        burst_copies: int = 8,
    ) -> "ChaosPolicy":
        """A seeded schedule over *num_requests* admissions.

        Injection points are drawn without replacement from the middle
        80% of the stream (chaos at the very first/last request tests
        nothing interesting), so every parameter set + seed maps to one
        schedule forever.
        """
        if num_requests < 5:
            raise ValidationError("need >= 5 requests to place chaos")
        if num_shards < 1:
            raise ValidationError("num_shards must be >= 1")
        total = kills + delays + bursts
        lo, hi = max(1, num_requests // 10), max(2, (9 * num_requests) // 10)
        span = list(range(lo, hi))
        if total > len(span):
            raise ValidationError(
                f"{total} events do not fit in {len(span)} injection slots"
            )
        rng = np.random.default_rng(np.random.SeedSequence([seed, num_requests]))
        points = sorted(
            int(p) for p in rng.choice(span, size=total, replace=False)
        )
        events: List[ChaosEvent] = []
        cursor = 0
        for _ in range(kills):
            events.append(
                ChaosEvent(
                    points[cursor], "kill",
                    shard=int(rng.integers(0, num_shards)),
                )
            )
            cursor += 1
        for _ in range(delays):
            events.append(
                ChaosEvent(
                    points[cursor], "delay",
                    delay_s=float(rng.uniform(max_delay_s / 5, max_delay_s)),
                )
            )
            cursor += 1
        for _ in range(bursts):
            events.append(
                ChaosEvent(points[cursor], "burst", copies=burst_copies)
            )
            cursor += 1
        return cls(events=tuple(sorted(events, key=lambda e: e.at_request)),
                   seed=seed)
