"""Request shape and admission errors of the evaluation service."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.core.api import copy_tree, request_digest
from repro.core.errors import StateError, ValidationError

#: Priority lanes, most urgent first.  Integer priorities are accepted
#: too (lower = more urgent) so callers can define finer lanes.
PRIORITY_LANES = {"high": 0, "normal": 1, "low": 2}


class AdmissionRejected(StateError):
    """The service refused a request; ``reason`` says why.

    Raised (not queued) so producers see backpressure immediately:
    ``"queue full"`` when the bounded queue is saturated, ``"draining"``
    / ``"stopped"`` during shutdown.
    """

    def __init__(self, message: str, *, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation request addressed to a registered workload.

    *priority* is a lane name (``"high"``/``"normal"``/``"low"``) or an
    int (lower = more urgent); *timeout_s* bounds the evaluation
    wall-clock inside the worker (retries included) via
    :class:`~repro.resilience.Deadline`.

    *config* is snapshotted at construction into a dict of its own
    (plain scalars shared, nested values copied, as
    :func:`~repro.core.api.copy_tree` does), so a caller that later
    mutates its mapping changes neither this request nor its
    :attr:`digest`, which is computed on first access and then kept.
    The memo lives outside the dataclass fields: ``==``, ``repr`` and
    :meth:`to_json` do not see it.
    """

    workload: str
    config: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    impl: Optional[str] = None
    priority: Union[str, int] = "normal"
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise ValidationError("request needs a workload name")
        if not isinstance(self.config, Mapping):
            raise ValidationError("request config must be a mapping")
        if isinstance(self.seed, bool) or not isinstance(
            self.seed, numbers.Integral
        ):
            raise ValidationError(
                f"request seed must be an integer, got {self.seed!r}"
            )
        if self.impl is not None and not isinstance(self.impl, str):
            raise ValidationError("request impl must be a string or null")
        if isinstance(self.priority, str):
            if self.priority not in PRIORITY_LANES:
                raise ValidationError(
                    f"unknown priority lane {self.priority!r} "
                    f"(choose from {sorted(PRIORITY_LANES)} or an int)"
                )
        elif not isinstance(self.priority, int):
            raise ValidationError("priority must be a lane name or an int")
        if self.timeout_s is not None and (
            isinstance(self.timeout_s, bool)
            or not isinstance(self.timeout_s, numbers.Real)
            or not self.timeout_s > 0
        ):
            raise ValidationError("timeout_s must be a positive number")
        object.__setattr__(
            self,
            "config",
            {key: copy_tree(value) for key, value in self.config.items()},
        )

    @property
    def priority_rank(self) -> int:
        if isinstance(self.priority, str):
            return PRIORITY_LANES[self.priority]
        return int(self.priority)

    @cached_property
    def digest(self) -> str:
        """Content address: cache key, dedup key and result digest."""
        return request_digest(
            self.workload, self.config, self.seed, self.impl
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "config": dict(self.config),
            "seed": self.seed,
            "impl": self.impl,
            "priority": self.priority,
            "timeout_s": self.timeout_s,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "EvalRequest":
        if not isinstance(payload, Mapping):
            raise ValidationError("a request must be a JSON object")
        known = {
            "workload", "config", "seed", "impl", "priority", "timeout_s"
        }
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(
                f"unknown EvalRequest fields: {sorted(unknown)}"
            )
        if "workload" not in payload:
            raise ValidationError("request needs a workload name")
        return cls(**dict(payload))

    @classmethod
    def _from_wire(
        cls, payload: Mapping[str, Any], digest: str
    ) -> "EvalRequest":
        """:meth:`from_json` with the digest its sender already
        computed, so the receiving process does not hash it again."""
        request = cls.from_json(payload)
        request.__dict__["digest"] = digest
        return request


def load_requests(text: str) -> List[EvalRequest]:
    """Parse a JSON array of request objects (the ``repro serve
    --requests`` file format)."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"request file is not JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise ValidationError("request file must hold a JSON array")
    try:
        return [EvalRequest.from_json(item) for item in payload]
    except RecursionError as exc:  # a config too deep to digest
        raise ValidationError(f"request nests too deep: {exc}") from exc
