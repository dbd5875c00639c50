"""One request-evaluation path for the service and the campaign runner.

:class:`~repro.serve.EvaluationService` batches and
:class:`~repro.campaign.GraphRunner` layers evaluate registered
workloads through the same three pieces, so both apply the same rules
to the one :class:`~repro.exec.ResultCache` they may share:

- :func:`evaluate_task` -- the worker: one request task in, one
  ``RunResult.to_json()`` record out (a traced ``__obs__`` envelope
  when the task carries a trace context);
- :func:`evaluate_batch` -- the batch: maps the worker over an
  evaluator, degrades quarantined worker crashes to error records,
  gives each follower of an errored leader a fresh attempt and evicts
  every key left without a good record.  Errors are outcomes, never
  cached values;
- :func:`read_record` -- the record reader, which sees through the
  envelope, so a record written by either path reads on the other.

A task is the tuple ``(workload, config, seed, impl, policy, timeout_s,
capture, wire)``.  With a backoff *policy* the evaluation runs under
:func:`~repro.resilience.resilient_run`: transient faults retry, and
*timeout_s* bounds the retry storm.  Without one it is a single plain
call.  With *capture* any terminal failure becomes an error record;
without it the exception propagates to the caller.  *wire* is the
trace context to evaluate under, or ``None``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.api import build_run_result, get_workload
from repro.core.errors import TransientFault, WorkerCrashError
from repro.obs.envelope import capture
from repro.obs.ledger import get_ledger
from repro.resilience import Deadline, resilient_run


def read_record(record: Any) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """``(payload, envelope)`` of a result record: the
    ``RunResult.to_json()`` payload, and the traced ``__obs__``
    envelope it came in (``None`` for a plain record).  An envelope
    cached when spans travelled apart from events (a ``spans`` list)
    reads as one record list, so a warm rerun still replays them."""
    if isinstance(record, dict) and record.get("__obs__"):
        if "spans" in record:
            record = {**record, "events": record["spans"] + record["events"]}
        return record["result"], record
    return record, None


def record_ok(record: Any) -> bool:
    payload, _ = read_record(record)
    return isinstance(payload, dict) and payload.get("status") == "ok"


def _error_record(
    task: Tuple, exc: BaseException, error_type: str,
    wall_time_s: float = 0.0,
) -> Dict[str, Any]:
    name, config, seed, impl = task[:4]
    return build_run_result(
        name,
        {},
        config=config,
        seed=seed,
        impl=impl,
        wall_time_s=wall_time_s,
        status="error",
        error=str(exc),
        error_type=error_type,
        trace_id=getattr(exc, "trace_id", None),
    ).to_json()


def _evaluate(task: Tuple) -> Dict[str, Any]:
    name, config, seed, impl, policy, timeout_s, capture, _ = task
    start = time.perf_counter()
    try:
        workload = get_workload(name)
        if policy is None:
            return workload.evaluate(config, seed=seed, impl=impl).to_json()
        outcome = resilient_run(
            lambda: workload.evaluate(config, seed=seed, impl=impl),
            policy=policy,
            retry_on=(TransientFault,),
            deadline=Deadline(timeout_s) if timeout_s is not None else None,
        )
        record = outcome.value.to_json()
        if outcome.attempts > 1:
            record["attempts"] = outcome.attempts
        return record
    except Exception as exc:
        if not capture:
            raise
        return _error_record(
            task, exc, type(exc).__name__, time.perf_counter() - start
        )


def evaluate_task(task: Tuple) -> Dict[str, Any]:
    """Evaluate one request task (module-level: process pools ship it).

    Without a trace context the result is the bare
    ``RunResult.to_json()`` record.  With one, it is an envelope: the
    record plus every span and event record produced while evaluating,
    keyed by the originating trace id so the coordinator can tell a
    fresh computation from a replayed cache hit.  Caches store it, so
    it never carries metrics.
    """
    header = task[7]
    if header is None:
        return _evaluate(task)
    trace_id = header["trace_id"]
    with capture(header, "worker") as captured:
        record = _evaluate(task)
        if record.get("trace_id") is None:
            record["trace_id"] = trace_id
        if record.get("status") != "ok":
            captured.status = "error"
            get_ledger().event(
                "request.error",
                trace_id=trace_id,
                error_type=record.get("error_type"),
            )
    return {
        "__obs__": True,
        "trace_id": trace_id,
        "result": record,
        "events": captured.records,
    }


def evaluate_batch(
    evaluator: Any, tasks: Sequence[Tuple], keys: Sequence[str]
) -> List[Any]:
    """Evaluate *tasks* (content digests *keys*) as one batch; records
    come back in task order.

    *evaluator* is a :class:`~repro.exec.ParallelEvaluator` (cache
    hits, in-batch dedup and crash recovery apply) or ``None`` for a
    plain in-process loop.
    """
    if evaluator is None:
        return [evaluate_task(task) for task in tasks]
    records = _map_with_recovery(evaluator, tasks, keys)
    _retry_error_followers(evaluator, tasks, keys, records)
    cache = evaluator.cache
    if cache is not None:
        # Failures are outcomes, not reusable pure values -- unless a
        # follower retry repopulated the slot its leader's error
        # vacated: a key with any good record keeps it.  Evicted before
        # the caller sees any record, so no resubmission can race onto
        # the error record.
        ok_keys = {
            key for key, record in zip(keys, records) if record_ok(record)
        }
        for key in dict.fromkeys(keys):
            if key not in ok_keys:
                cache.delete(key)
    return records


def _map_with_recovery(
    evaluator: Any, tasks: Sequence[Tuple], keys: Sequence[str]
) -> List[Any]:
    """Dispatch the batch, degrading per-digest on worker death.

    :class:`~repro.core.errors.WorkerCrashError` from the engine names
    the quarantined digests (poison tasks that crashed their worker
    repeatedly); those become error records, the values it completed
    are kept, and only the rest of the batch is re-mapped -- one poison
    request must never take its batch-mates down with it, nor make
    them run twice.  A crashed task without *capture* re-raises the
    crash.  The loop is bounded: every pass either completes or
    quarantines at least one digest.
    """
    slots = list(range(len(tasks)))
    records: List[Any] = [None] * len(tasks)
    while slots:
        try:
            mapped = evaluator.map(
                evaluate_task,
                [tasks[i] for i in slots],
                keys=[keys[i] for i in slots],
            )
        except WorkerCrashError as exc:
            for rel, record in exc.completed:
                records[slots[rel]] = record
            done = {slots[rel] for rel, _ in exc.completed}
            quarantined = set(exc.quarantined)
            crashed = {
                i for i in slots if i not in done
                and (not quarantined or keys[i] in quarantined)
            }
            if not all(tasks[i][6] for i in crashed):
                raise
            get_ledger().event(
                "batch.worker_crash", quarantined=sorted(quarantined)
            )
            for i in crashed:
                records[i] = _error_record(tasks[i], exc, "WorkerCrashError")
            settled = crashed | done
            slots = [i for i in slots if i not in settled]
            continue
        for i, record in zip(slots, mapped):
            records[i] = record
        slots = []
    return records


def _retry_error_followers(
    evaluator: Any,
    tasks: Sequence[Tuple],
    keys: Sequence[str],
    records: List[Any],
) -> None:
    """In-batch dedup must not fan one error out to every caller.

    When identical requests coalesce onto a single evaluation and that
    evaluation *fails*, only the first requester sees the failure --
    each coalesced follower gets a fresh, cache- and dedup-free
    attempt, in place in *records*.  A follower success repopulates
    the cache slot the error left vacant.  A quarantined digest gets no
    fresh attempt: without its key the evaluator could not refuse it,
    and the poison would crash a worker (or the coordinator) again.
    """
    quarantined = evaluator.quarantined
    seen = set()
    followers: List[int] = []
    for idx, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
        elif not record_ok(records[idx]) and key not in quarantined:
            followers.append(idx)
    if not followers:
        return
    fresh = evaluator.map(evaluate_task, [tasks[i] for i in followers])
    for idx, record in zip(followers, fresh):
        records[idx] = record
        if record_ok(record) and evaluator.cache is not None:
            evaluator.cache.put(keys[idx], record)


__all__ = ["evaluate_batch", "evaluate_task", "read_record", "record_ok"]
