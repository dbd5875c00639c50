"""Load drivers: an open-loop arrival schedule and closed-loop clients.

The open-loop driver is the benchmark's own, not
``repro.serve.loadgen.run_load``: that helper times each request from
its *actual* submit time and collects futures in submission order, so
a stalled generator hides its stall and a fast request queued behind a
slow one is charged the slow one's wait.  Here every request is timed
from the instant it was *due*, its completion is stamped by a
``Future.add_done_callback`` the moment it resolves, and the
generator's own lateness is reported so a run whose generator fell
behind can be declared invalid.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, List, Optional, Sequence

from measure import now, percentile

#: A run is invalid when the generator fell behind its schedule: its
#: median lateness exceeds the first bound (it runs late as a rule, not
#: in a stall), or any request went out later than the second.
MAX_P50_LATENESS_S = 0.005
MAX_LATENESS_S = 0.250


@dataclass
class Sent:
    """One request's life as the client saw it."""

    index: int
    request: Any
    due: float
    submit_start: float = 0.0
    submit_end: float = 0.0
    done: Optional[float] = None
    future: Any = None
    rejected: Optional[str] = None
    #: Set by a closed loop's *verify* callback, which then drops the
    #: future so results are not kept for the whole window.
    outcome: Optional[str] = None


@dataclass
class LoopResult:
    sent: List[Sent] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def lateness(self) -> List[float]:
        return [max(0.0, s.submit_start - s.due) for s in self.sent]

    def lateness_summary(self) -> dict:
        late = self.lateness
        return {
            "p50_ms": percentile(late, 50) * 1e3,
            "p99_ms": percentile(late, 99) * 1e3,
            "max_ms": max(late, default=0.0) * 1e3,
        }

    @property
    def generator_behind(self) -> bool:
        late = self.lateness
        return (percentile(late, 50) > MAX_P50_LATENESS_S
                or max(late, default=0.0) > MAX_LATENESS_S)


def _stamp(sent: Sent, _future: Any) -> None:
    if sent.done is None:
        sent.done = now()


def _submit(submit: Callable[[Any], Any], sent: Sent) -> None:
    """Submit ``sent.request``; a submit call that raises (admission
    refused, breaker open, shard gone) marks the request rejected
    instead of ending the run, so it still counts as attempted and
    failed."""
    sent.submit_start = now()
    try:
        future = submit(sent.request)
    except Exception as exc:  # noqa: BLE001 - every refusal is counted
        sent.submit_end = now()
        sent.rejected = getattr(exc, "reason", None) or type(exc).__name__
        return
    sent.submit_end = now()
    sent.future = future
    future.add_done_callback(partial(_stamp, sent))


def _settle(future: Any, timeout: float) -> None:
    """Wait for *future*; one still pending after *timeout* is left for
    the correctness check to count as lost."""
    try:
        future.exception(timeout=max(0.0, timeout))
    except TimeoutError:
        pass


def open_loop(
    submit: Callable[[Any], Any],
    requests: Sequence[Any],
    offsets: Sequence[float],
    settle_s: float = 60.0,
) -> LoopResult:
    """Send ``requests[i]`` at ``offsets[i]`` seconds from the start,
    from one thread, whatever the system's progress; wait for every
    future."""
    out = LoopResult()
    start = now() + 0.02
    out.started = start
    for index, (request, offset) in enumerate(zip(requests, offsets)):
        due = start + offset
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        sent = Sent(index=index, request=request, due=due)
        _submit(submit, sent)
        out.sent.append(sent)
    deadline = now() + settle_s
    for sent in out.sent:
        if sent.future is not None:
            _settle(sent.future, deadline - now())
    out.finished = now()
    return out


def closed_loop(
    submit: Callable[[Any], Any],
    streams: Sequence[Sequence[Any]],
    seconds: float,
    verify: Callable[[Sent], str],
    settle_s: float = 60.0,
) -> LoopResult:
    """One thread per stream; each sends its next request only after
    the previous one resolved (or was refused) and *verify* classified
    it, until *seconds* have passed.  Every request a client sent is
    kept, whatever happened to it; an error in the benchmark's own code
    is raised again here once all clients stopped."""
    out = LoopResult()
    lock = threading.Lock()
    errors: List[BaseException] = []
    start = now()
    stop_at = start + seconds
    out.started = start

    def client(stream: Sequence[Any]) -> None:
        local: List[Sent] = []
        try:
            for index, request in enumerate(stream):
                t0 = now()
                if t0 >= stop_at:
                    break
                sent = Sent(index=index, request=request, due=t0)
                local.append(sent)
                _submit(submit, sent)
                if sent.future is not None:
                    _settle(sent.future, settle_s)
                    # A waiter can wake before the future runs its done
                    # callbacks; stamp here then (first stamp wins).
                    if sent.future.done():
                        _stamp(sent, sent.future)
                sent.outcome = verify(sent)
                sent.future = None
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            with lock:
                out.sent.extend(local)

    threads = [
        threading.Thread(target=client, args=(s,), name=f"client{i}")
        for i, s in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.finished = now()
    if errors:
        raise errors[0]
    return out
