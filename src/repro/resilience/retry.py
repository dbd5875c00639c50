"""Bounded retry with exponential backoff, and deadline enforcement.

:func:`resilient_run` is the execution harness every long sweep goes
through: transient faults are retried up to a bounded attempt budget
with exponentially growing, jittered backoff; permanent faults and
validation errors propagate immediately.  Backoff delays are *virtual*
by default (accumulated, not slept) -- the simulators model time, they
do not burn it -- but a real ``sleep`` callable can be injected for
wall-clock deployments.

:class:`Deadline` turns runaway runs into structured
:class:`~repro.core.errors.SimulationTimeout` errors that carry partial
statistics, instead of hanging or dying with a bare error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple, Type

from repro.core.errors import SimulationTimeout, TransientFault, ValidationError

if TYPE_CHECKING:
    from repro.core.rng import SeedLike


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with jitter, bounded in attempts and delay.

    Attempt *n* (1-based failure count) waits
    ``min(base_delay_s * factor**(n-1), max_delay_s)`` scaled by a
    uniform jitter in ``[1-jitter, 1+jitter]``.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.01
    factor: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValidationError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValidationError("backoff factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValidationError("jitter must be in [0, 1)")

    def delay_s(self, attempt: int, rng: SeedLike = None) -> float:
        """Backoff delay after the *attempt*-th failure (1-based)."""
        if attempt < 1:
            raise ValidationError("attempt must be >= 1")
        delay = min(
            self.base_delay_s * self.factor ** (attempt - 1),
            self.max_delay_s,
        )
        if self.jitter:
            from repro.core.rng import make_rng

            generator = make_rng(rng)
            delay *= 1.0 + self.jitter * float(generator.uniform(-1.0, 1.0))
        return delay


class Deadline:
    """A cycle and/or wall-clock budget for one simulation run.

    ``check()`` raises :class:`SimulationTimeout` once either budget is
    exhausted; *partial_stats* threads whatever the simulator has
    accumulated into the exception so callers can checkpoint it.
    """

    def __init__(
        self,
        wall_clock_s: Optional[float] = None,
        max_cycles: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if wall_clock_s is not None and wall_clock_s <= 0:
            raise ValidationError("wall_clock_s must be positive")
        if max_cycles is not None and max_cycles < 1:
            raise ValidationError("max_cycles must be >= 1")
        self.wall_clock_s = wall_clock_s
        self.max_cycles = max_cycles
        self._clock = clock
        self._start = clock()

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._start

    def remaining_s(self) -> Optional[float]:
        if self.wall_clock_s is None:
            return None
        return self.wall_clock_s - self.elapsed_s

    def check(
        self, cycles: Optional[int] = None, partial_stats: Any = None
    ) -> None:
        """Raise :class:`SimulationTimeout` if any budget is exhausted."""
        if self.max_cycles is not None and cycles is not None:
            if cycles >= self.max_cycles:
                raise SimulationTimeout(
                    f"simulation exceeded {self.max_cycles} cycles",
                    partial_stats=partial_stats,
                    cycles=cycles,
                    elapsed_s=self.elapsed_s,
                )
        if self.wall_clock_s is not None:
            elapsed = self.elapsed_s
            if elapsed >= self.wall_clock_s:
                raise SimulationTimeout(
                    f"simulation exceeded {self.wall_clock_s:g} s "
                    f"wall-clock budget",
                    partial_stats=partial_stats,
                    cycles=cycles,
                    elapsed_s=elapsed,
                )


@dataclass(frozen=True)
class RunOutcome:
    """Result of one :func:`resilient_run`: the value plus the retry
    accounting the acceptance tests assert on."""

    value: Any
    attempts: int
    backoff_s: float

    @property
    def retried(self) -> bool:
        return self.attempts > 1


def resilient_run(
    fn: Callable[[], Any],
    *,
    policy: BackoffPolicy = BackoffPolicy(),
    retry_on: Tuple[Type[BaseException], ...] = (TransientFault,),
    rng: SeedLike = None,
    sleep: Optional[Callable[[float], None]] = None,
    deadline: Optional[Deadline] = None,
) -> RunOutcome:
    """Run *fn* with bounded retry on transient faults.

    Exceptions in *retry_on* are retried up to ``policy.max_attempts``
    total attempts with exponential backoff; the final failure (and any
    exception outside *retry_on*) propagates to the caller.  Backoff
    delays accumulate virtually unless a *sleep* callable is provided.
    A *deadline* is checked before every attempt, so a retry storm
    cannot outlive its wall-clock budget.
    """
    from repro.core.rng import make_rng
    from repro.obs.ledger import get_ledger

    ledger = get_ledger()
    generator = make_rng(rng)
    attempts = 0
    backoff_total = 0.0
    while True:
        if deadline is not None:
            deadline.check()
        attempts += 1
        try:
            value = fn()
        except retry_on as exc:
            if attempts >= policy.max_attempts:
                ledger.event(
                    "retries.exhausted",
                    attempts=attempts,
                    error_type=type(exc).__name__,
                )
                raise
            delay = policy.delay_s(attempts, rng=generator)
            backoff_total += delay
            ledger.event(
                "retry",
                attempt=attempts,
                error_type=type(exc).__name__,
                delay_s=delay,
            )
            if sleep is not None:
                sleep(delay)
        else:
            return RunOutcome(
                value=value, attempts=attempts, backoff_s=backoff_total
            )
