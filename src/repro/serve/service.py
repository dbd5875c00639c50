"""The asynchronous micro-batched evaluation service.

:class:`EvaluationService` is the front door the ROADMAP's serving
story needs: callers :meth:`~EvaluationService.submit` evaluation
requests for any registered :class:`~repro.core.api.Workload` and get
back a future; a dispatcher thread coalesces queued requests into
micro-batches (size- and time-bounded, priority lanes first) and ships
each batch through :class:`~repro.exec.ParallelEvaluator`, which
resolves content-addressed :class:`~repro.exec.ResultCache` hits,
deduplicates identical requests inside the batch and evaluates the rest
under the :mod:`repro.resilience` retry/deadline contract.  The queue
is bounded: producers either block (backpressure) or get an immediate
:class:`~repro.serve.request.AdmissionRejected` with a reason.  A
request whose digest already holds a good result in the cache never
queues: it is answered at admission, in the submitting thread.

Serving never perturbs results: evaluation happens through the same
``Workload.evaluate`` a direct caller would use, and every random
stream derives from request content, so a served
:class:`~repro.core.api.RunResult` is byte-identical (canonical form)
to a direct evaluation -- the equivalence the conformance tests pin.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.api import RunResult, check_workload
from repro.core.errors import ValidationError
from repro.exec import ParallelEvaluator, coerce_cache
from repro.exec.parallel import CacheLike, EvaluatorLike, make_evaluator
from repro.exec.requests import evaluate_batch, read_record, record_ok
from repro.obs.envelope import absorb
from repro.obs.ledger import get_ledger
from repro.obs.trace import TraceContext, TraceSlots, get_tracer
from repro.resilience import BackoffPolicy
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import AdmissionRejected, EvalRequest


class _Pending:
    """One admitted request: its content digest (computed once, at
    admission), its future, its trace state (``None`` when tracing is
    off) and its queue timestamps."""

    __slots__ = (
        "request", "key", "future", "trace", "enqueued", "dispatched"
    )

    def __init__(self, request: EvalRequest, key: str) -> None:
        self.request = request
        self.key = key
        self.future: "Future[RunResult]" = Future()
        self.trace: Optional[Dict[str, Any]] = None
        self.enqueued = 0.0
        self.dispatched = 0.0


class EvaluationService:
    """Async micro-batched front door over the workload registry.

    Parameters follow the suite-wide ``parallel=`` / ``cache=``
    contract (see :mod:`repro.core.api`): *parallel* selects the batch
    execution engine (default: a serial cache-aware engine -- batching
    still wins through dedup and amortized dispatch), *cache* memoizes
    results across batches by request digest.  *batch_size* bounds
    micro-batch occupancy; *batch_wait_s* is how long the dispatcher
    holds an under-full batch open for coalescing; *max_queue* bounds
    the admission queue.
    """

    def __init__(
        self,
        *,
        batch_size: int = 8,
        batch_wait_s: float = 0.005,
        max_queue: int = 256,
        parallel: EvaluatorLike = None,
        cache: CacheLike = None,
        policy: Optional[BackoffPolicy] = None,
        start: bool = True,
    ) -> None:
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if batch_wait_s < 0:
            raise ValidationError("batch_wait_s must be >= 0")
        if max_queue < 1:
            raise ValidationError("max_queue must be >= 1")
        self.batch_size = batch_size
        self.batch_wait_s = batch_wait_s
        self.max_queue = max_queue
        engine = make_evaluator(parallel, cache)
        if engine is None:
            engine = ParallelEvaluator(
                max_workers=1, mode="serial", cache=coerce_cache(cache)
            )
        self._evaluator = engine
        self.policy = policy or BackoffPolicy(max_attempts=1)
        self.metrics = ServiceMetrics()

        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._space_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        # Queue entries: (priority_rank, seq, _Pending); the heap only
        # ever compares the first two elements because seq is unique.
        self._queue: List[Tuple[int, int, _Pending]] = []
        self._seq = 0
        # Deterministic trace ids and stitched order slots, by digest.
        self._trace_slots = TraceSlots()
        # Set by cluster backends so stitched traces carry which shard
        # served the request (volatile: excluded from canonical form).
        self.shard_index: Optional[int] = None
        self._pending = 0
        self._draining = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._stopped:
                raise ValidationError("service has been shut down")
            if self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._dispatch_loop,
                name="repro-serve-dispatcher",
                daemon=True,
            )
            self._thread.start()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    @property
    def cache(self):
        return self._evaluator.cache

    @property
    def alive(self) -> bool:
        """Whether the dispatcher is up -- the liveness signal a shard
        supervisor polls."""
        thread = self._thread
        return (
            thread is not None and thread.is_alive() and not self._stopped
        )

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------ admission

    def submit_request(
        self,
        request: EvalRequest,
        *,
        block: bool = False,
        trace_ctx: Optional[TraceContext] = None,
    ) -> "Future[RunResult]":
        """Admit *request*; returns a future resolving to its
        :class:`~repro.core.api.RunResult`.

        A request whose digest holds an ``ok`` record in the cache is
        answered here, in the caller's thread: its future is done when
        this returns.  Such a hit never takes a queue slot, so a full
        queue does not reject it, and it is not counted as a batch; its
        trace and ledger story are those of a hit served by a batch.
        Error records are never served this way (errors are outcomes,
        not values): those requests queue and are evaluated afresh.

        A saturated queue raises :class:`AdmissionRejected` immediately
        unless ``block=True``, in which case the caller waits for space
        -- backpressure instead of rejection.  *trace_ctx* stitches the
        request's trace under a caller-side parent span (the cluster
        router or a campaign layer) instead of opening a fresh root.
        """
        check_workload(request.workload)  # unknown names fail fast
        pending = _Pending(request, request.digest)
        with self._lock:
            self._check_admission()
            pending.enqueued = time.perf_counter()
            record = self._cached_ok(pending.key)
            while record is None and len(self._queue) >= self.max_queue:
                if not block:
                    self.metrics.record_reject("queue full")
                    get_ledger().event(
                        "admission.rejected",
                        reason="queue full",
                        digest=pending.key,
                    )
                    raise AdmissionRejected(
                        f"queue is full ({self.max_queue} requests); "
                        "retry later or submit with block=True",
                        reason="queue full",
                    )
                self._space_ready.wait()
                self._check_admission()
                # Time blocked on backpressure is not queue wait.
                pending.enqueued = time.perf_counter()
            pending.trace = self._open_trace(request, pending.key, trace_ctx)
            self._pending += 1
            if record is None:
                self._seq += 1
                heapq.heappush(
                    self._queue,
                    (request.priority_rank, self._seq, pending),
                )
                self._work_ready.notify()
            self.metrics.record_submit(len(self._queue))
        if record is not None:
            pending.dispatched = pending.enqueued
            spans, _, trace_ids = self._open_batch_spans([pending])
            self._resolve(
                pending, record, spans[0], trace_ids,
                time.perf_counter(), time.time(), cache_hit=True,
            )
            self._release(1)
        return pending.future

    def _cached_ok(self, key: str) -> Optional[Any]:
        """The ``ok`` record cached under *key*, or ``None``.

        Only a served record counts as a cache lookup (a hit); a miss is
        left for the batch's own lookup to count, so each request is
        counted once.  An error record is evicted -- the eviction a
        batch applies to any error it serves -- so the batch evaluates
        the request afresh.  The record is the stored one, not a copy:
        :meth:`_resolve` only reads it, and the ``RunResult`` built
        from it owns its metrics."""
        cache = self._evaluator.cache
        if cache is None:
            return None
        with cache.lock:
            record = cache.peek(key)
            if record is None:
                return None
            if not record_ok(record):
                cache.delete(key)
                return None
            return cache.lookup(key)

    def _open_trace(
        self,
        request: EvalRequest,
        digest: str,
        trace_ctx: Optional[TraceContext] = None,
    ) -> Optional[Dict[str, Any]]:
        """Allocate the request's deterministic trace id and open its
        root span (``None`` when tracing is off -- one boolean check).
        Called under the service lock (the slot allocator).

        With a *trace_ctx* the request span nests under the caller's
        span in the caller's trace; its order slot is allocated per
        digest under that parent, so a cluster replay onto a fresh
        shard incarnation re-derives the exact span id of the first
        attempt (canonical traces stay byte-identical under chaos).
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return None
        trace_id, parent_id, order = self._trace_slots.place(
            digest, trace_ctx
        )
        root = tracer.start_span(
            "request",
            trace_id=trace_id,
            parent_id=parent_id,
            order=order,
            attributes={
                "workload": request.workload,
                "digest": digest,
                "seed": request.seed,
                "priority": str(request.priority),
            },
            volatile=(
                {"shard": self.shard_index}
                if self.shard_index is not None
                else None
            ),
        )
        get_ledger().event(
            "request.admitted",
            trace_id=trace_id,
            workload=request.workload,
            digest=digest,
        )
        return {
            "trace_id": trace_id,
            "root": root,
            "submitted_wall": time.time(),
        }

    def _check_admission(self) -> None:
        if self._stopped:
            self.metrics.record_reject("stopped")
            get_ledger().event("admission.rejected", reason="stopped")
            raise AdmissionRejected(
                "service is stopped", reason="stopped"
            )
        if self._draining:
            self.metrics.record_reject("draining")
            get_ledger().event("admission.rejected", reason="draining")
            raise AdmissionRejected(
                "service is draining", reason="draining"
            )

    def submit(
        self,
        workload: str,
        config: Optional[Mapping[str, Any]] = None,
        *,
        seed: int = 0,
        impl: Optional[str] = None,
        priority: Any = "normal",
        timeout_s: Optional[float] = None,
        block: bool = False,
        trace_ctx: Optional[TraceContext] = None,
    ) -> "Future[RunResult]":
        """Convenience :meth:`submit_request` from bare arguments."""
        return self.submit_request(
            EvalRequest(
                workload=workload,
                config=dict(config or {}),
                seed=seed,
                impl=impl,
                priority=priority,
                timeout_s=timeout_s,
            ),
            block=block,
            trace_ctx=trace_ctx,
        )

    def submit_async(self, request: EvalRequest, *, block: bool = False):
        """Awaitable form of :meth:`submit_request` for asyncio callers
        (wraps the concurrent future into the running event loop)."""
        import asyncio

        return asyncio.wrap_future(self.submit_request(request, block=block))

    def evaluate(
        self,
        workload: str,
        config: Optional[Mapping[str, Any]] = None,
        **kwargs: Any,
    ) -> RunResult:
        """Synchronous round trip: submit and wait for the result."""
        return self.submit(workload, config, **kwargs).result()

    # ------------------------------------------------------------- shutdown

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has resolved.

        Returns False if *timeout* elapsed first.  Admission stays open
        (callers wanting a terminal drain use :meth:`shutdown`), so a
        drain only completes when producers pause.
        """
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        with self._lock:
            while self._pending > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def shutdown(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop the service.

        ``drain=True`` (graceful) completes every queued request first;
        ``drain=False`` cancels queued requests (their futures raise
        :class:`AdmissionRejected`) and stops after the in-flight batch.
        The evaluator's worker pool is joined and its cache closed.
        Idempotent.
        """
        with self._lock:
            if self._stopped and self._thread is None:
                return
            self._draining = True
            if not drain:
                cancelled = [entry[2] for entry in self._queue]
                self._queue.clear()
                for pending in cancelled:
                    future, trace = pending.future, pending.trace
                    self._pending -= 1
                    if trace is not None:
                        get_tracer().end_span(
                            trace["root"], status="cancelled"
                        )
                        get_ledger().event(
                            "request.cancelled",
                            trace_id=trace["trace_id"],
                        )
                    future.set_exception(
                        AdmissionRejected(
                            "service shut down before this request "
                            "was dispatched",
                            reason="cancelled",
                        )
                    )
                if cancelled:
                    self._idle.notify_all()
            self._space_ready.notify_all()
        if drain:
            self.drain(timeout)
        with self._lock:
            self._stopped = True
            self._work_ready.notify_all()
            self._space_ready.notify_all()
            thread = self._thread
        stuck = False
        if thread is not None:
            thread.join(timeout)
            stuck = thread.is_alive()
            self._thread = None
        # A dispatcher still inside a batch after *timeout* keeps the
        # pool busy: release it without waiting for that batch.
        self._evaluator.close(wait=not stuck)
        if self.cache is not None:
            self.cache.close()

    def kill(self) -> None:
        """Crash the service the way a dead process would.

        Unlike :meth:`shutdown`, queued futures are *stranded* -- they
        never resolve -- and nothing is drained or joined: that is
        exactly what callers of a crashed shard observe, and it is the
        failure mode :class:`~repro.serve.cluster.ShardCluster` must
        recover from by restarting the shard and replaying the run
        ledger.  A chaos/testing hook, not a lifecycle method.  The
        worker pool is released as a dead process's would be, without
        waiting for a batch the dispatcher may still be running.
        """
        with self._lock:
            self._stopped = True
            self._draining = True
            self._queue.clear()
            self._pending = 0
            self._work_ready.notify_all()
            self._space_ready.notify_all()
            self._idle.notify_all()
        self._evaluator.close(wait=False)
        get_ledger().event("shard.killed")

    # ------------------------------------------------------------ dispatch

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._run_batch(batch)
            except Exception as exc:  # pragma: no cover - defensive
                # A batch-level failure must not strand futures.
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
                self._release(len(batch))

    def _release(self, count: int) -> None:
        """*count* admitted requests have resolved."""
        with self._lock:
            self._pending = max(0, self._pending - count)
            if self._pending == 0:
                self._idle.notify_all()

    def _next_batch(self) -> Optional[List[_Pending]]:
        """Pop up to ``batch_size`` requests, priority lanes first.

        The first request opens the batch; the dispatcher then holds it
        open for up to ``batch_wait_s`` (or until full) so closely
        spaced requests coalesce -- the micro-batching window.
        """
        with self._lock:
            while not self._queue and not self._stopped:
                self._work_ready.wait()
            if self._stopped and not self._queue:
                return None
            batch = [self._pop_entry()]
            hold_until = time.perf_counter() + self.batch_wait_s
            while len(batch) < self.batch_size:
                if self._queue:
                    batch.append(self._pop_entry())
                    continue
                remaining = hold_until - time.perf_counter()
                if remaining <= 0 or self._stopped:
                    break
                self._work_ready.wait(remaining)
            self._space_ready.notify_all()
            return batch

    def _pop_entry(self) -> _Pending:
        pending = heapq.heappop(self._queue)[2]
        pending.dispatched = time.perf_counter()
        return pending

    def _open_batch_spans(
        self, batch: List[_Pending]
    ) -> Tuple[List[Any], List[Optional[Dict[str, Any]]], set]:
        """Per traced request: record its measured ``queue.wait`` span,
        open its ``batch`` span, and build the wire context its worker
        task will evaluate under.  The wire names no ``metrics``: the
        envelope it yields is the record the cache keeps."""
        tracer = get_tracer()
        batch_spans: List[Any] = []
        wires: List[Optional[Dict[str, Any]]] = []
        batch_trace_ids: set = set()
        for pending in batch:
            trace = pending.trace
            if trace is None:
                batch_spans.append(None)
                wires.append(None)
                continue
            tid = trace["trace_id"]
            batch_trace_ids.add(tid)
            root_id = trace["root"].span_id
            now_wall = time.time()
            # Explicit orders: the span names differ, so both ids stay
            # unique under the root, and a replayed attempt (cluster
            # restart after a kill) re-derives the same ids instead of
            # consuming fresh order-counter slots.
            tracer.record_span(
                "queue.wait",
                trace_id=tid,
                parent_id=root_id,
                order=0,
                start_s=trace["submitted_wall"],
                end_s=now_wall,
            )
            span = tracer.start_span(
                "batch",
                trace_id=tid,
                parent_id=root_id,
                order=0,
                volatile={"batch_size": len(batch)},
                start_s=now_wall,
            )
            batch_spans.append(span)
            wire = span.context.to_wire()
            wire["ledger"] = tracer.events_enabled
            wires.append(wire)
        return batch_spans, wires, batch_trace_ids

    def _run_batch(self, batch: List[_Pending]) -> None:
        batch_spans, wires, batch_trace_ids = self._open_batch_spans(batch)
        tasks = [
            (
                pending.request.workload,
                dict(pending.request.config),
                pending.request.seed,
                pending.request.impl,
                self.policy,
                pending.request.timeout_s,
                True,
                wire,
            )
            for pending, wire in zip(batch, wires)
        ]
        # Evaluator counters, not cache stats: admission hits served
        # concurrently by submitting threads read the same cache.
        cached_before = self._evaluator.tasks_cached
        computed_before = self._evaluator.tasks_computed
        records = evaluate_batch(
            self._evaluator, tasks, [pending.key for pending in batch]
        )
        computed = self._evaluator.tasks_computed - computed_before
        cache_hits = self._evaluator.tasks_cached - cached_before

        done_at = time.perf_counter()
        done_wall = time.time()
        # Account the batch before resolving its futures: a caller
        # holding its result must find the batch in a snapshot.
        self.metrics.record_batch(
            size=len(batch),
            computed=computed,
            cache_hits=cache_hits,
            deduped=max(0, len(batch) - computed - cache_hits),
            retries=sum(
                max(0, read_record(record)[0].get("attempts", 1) - 1)
                for record in records
            ),
        )
        for pending, bspan, record in zip(batch, batch_spans, records):
            self._resolve(
                pending, record, bspan, batch_trace_ids, done_at, done_wall
            )
        self._release(len(batch))

    def _resolve(
        self,
        pending: _Pending,
        record: Any,
        bspan: Any,
        batch_trace_ids: set,
        done_at: float,
        done_wall: float,
        *,
        cache_hit: bool = False,
    ) -> None:
        """Complete one request from its result *record*: bind the
        result to the request's trace, close its ledger story and its
        ``batch`` and root spans, record its metrics and resolve its
        future.  Shared by the batch path and admission hits
        (*cache_hit*)."""
        payload, envelope = read_record(record)
        trace = pending.trace
        if trace is not None:
            tid = trace["trace_id"]
            # The same evaluation can serve many traces (dedup, cache);
            # the result each caller sees is bound to *its* trace.
            # trace_id is volatile, so canonical identity is untouched.
            payload = {**payload, "trace_id": tid}
        result = RunResult.from_json(payload)
        if trace is not None:
            tracer = get_tracer()
            ledger = get_ledger()
            status = "ok" if result.ok else "error"
            if envelope is not None and envelope["trace_id"] == tid:
                # Freshly computed for this very request: its
                # worker/kernel spans belong in this trace.
                absorb(envelope)
            elif envelope is not None:
                origin = (
                    "evaluation.deduped"
                    if envelope["trace_id"] in batch_trace_ids
                    else "cache.hit"
                )
                ledger.event(
                    origin, trace_id=tid,
                    source_trace=envelope["trace_id"],
                )
            else:
                # Plain cached payload from an untraced run.
                ledger.event("cache.hit", trace_id=tid)
            tracer.end_span(bspan, status=status, end_s=done_wall)
            tracer.end_span(trace["root"], status=status, end_s=done_wall)
            ledger.event("request.done", trace_id=tid, status=result.status)
        self.metrics.record_done(
            latency_s=done_at - pending.enqueued,
            queue_wait_s=pending.dispatched - pending.enqueued,
            ok=result.ok,
            cache_hit=cache_hit,
        )
        pending.future.set_result(result)

    # ------------------------------------------------------------ reporting

    def gauges(self) -> Dict[str, float]:
        """Cheap live gauges for the flight recorder: lock-only reads,
        no evaluator or cache round trips."""
        with self._lock:
            return {
                "queue_depth": float(len(self._queue)),
                "pending": float(self._pending),
                "alive": 1.0 if not self._stopped else 0.0,
            }

    def snapshot(self) -> Dict[str, Any]:
        """Metrics snapshot including cache and evaluator accounting."""
        cache = self._evaluator.cache
        return self.metrics.snapshot(
            queue_depth=self.queue_depth,
            cache_stats=cache.stats() if cache is not None else None,
            evaluator_stats=self._evaluator.stats(),
        )


def serve_requests(
    requests: Sequence[EvalRequest],
    *,
    batch_size: int = 8,
    batch_wait_s: float = 0.005,
    parallel: EvaluatorLike = None,
    cache: CacheLike = None,
    policy: Optional[BackoffPolicy] = None,
) -> Tuple[List[RunResult], Dict[str, Any]]:
    """One-shot convenience: serve *requests* to completion.

    Builds a service sized to the request list, submits everything
    (blocking admission = backpressure, no rejections), drains, and
    returns ``(results in request order, metrics snapshot)``.
    """
    service = EvaluationService(
        batch_size=batch_size,
        batch_wait_s=batch_wait_s,
        max_queue=max(1, len(requests)),
        parallel=parallel,
        cache=cache,
        policy=policy,
    )
    try:
        futures = [
            service.submit_request(request, block=True)
            for request in requests
        ]
        results = [future.result() for future in futures]
        snapshot = service.snapshot()
    finally:
        service.shutdown()
    return results, snapshot
