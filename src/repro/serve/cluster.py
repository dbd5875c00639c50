"""Fault-tolerant sharded serving: supervised shards behind a router.

The ROADMAP's serving tier promises "sharding, batching, async,
caching" *under failure*: a shard process dying mid-campaign must not
lose or duplicate a single result.  This module is that robustness
layer:

- :class:`ShardRouter` -- consistent hashing (virtual nodes) on the
  request's content digest, so the same request always lands on the
  same shard (shard-local caches and in-batch dedup keep working) and
  removing one shard only remaps that shard's keys;
- :class:`ShardCluster` -- N :class:`~repro.serve.EvaluationService`
  shards behind one ``submit_request`` front door, an in-flight table
  keyed by cluster request id, and per-workload
  :class:`~repro.resilience.CircuitBreaker` admission;
- :class:`Supervisor` -- heartbeat liveness + progress-deadline stall
  detection; a dead shard is restarted (fresh service, bumped
  incarnation) and its lost in-flight requests are *replayed* from the
  in-memory in-flight table, which also holds their futures.  The run
  ledger records the same story (``cluster.submit`` without a matching
  ``cluster.done``), and :func:`incomplete_from_ledger` audits it
  offline: it names exactly the requests a restart replays;
- :func:`run_chaos_campaign` -- the deterministic chaos driver: a
  seeded :class:`~repro.resilience.ChaosPolicy` injects shard kills,
  submission delays and duplicate bursts at pinned request indices
  while the campaign asserts exactly-once completion.

Shards come in two backends.  ``backend="inproc"`` (the default) hosts
each shard's :class:`EvaluationService` in this process -- cheap, fully
deterministic, the chaos-test substrate.  ``backend="process"`` hosts
each shard in its own worker process
(:class:`~repro.serve.procshard.ProcessShard`): true multi-core
scaling, real ``kill -9`` failure modes, and cross-process metric /
ledger collection, with the same router, exactly-once futures, circuit
breakers and replay recovery driving both.

Exactly-once delivery is enforced structurally: every cluster future
is resolved under the cluster lock by the *first* shard completion for
its request id (a replayed duplicate evaluation is discarded, not
surfaced), and evaluation itself is deterministic, so whichever
attempt wins yields byte-identical canonical results.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.api import RunResult, check_workload
from repro.core.errors import ValidationError
from repro.exec.parallel import CacheLike, EvaluatorLike, coerce_cache
from repro.obs.ledger import get_ledger
from repro.obs.stats import summary as _summary
from repro.obs.trace import TraceContext, TraceSlots, get_tracer
from repro.resilience import BackoffPolicy, ChaosPolicy, CircuitBreaker
from repro.serve.procshard import ProcessShard, validate_process_spec
from repro.serve.request import AdmissionRejected, EvalRequest
from repro.serve.service import EvaluationService

#: Shard hosting backends: in-process services vs one worker process
#: per shard.
BACKENDS = ("inproc", "process")

#: Virtual nodes per shard on the cluster's consistent-hash ring.
REPLICAS = 64

#: How long a dispatch keeps rerouting while no shard is alive before
#: it rejects the request with ``reason="no live shards"``.
REROUTE_TIMEOUT_S = 10.0

#: How long a chaos campaign waits for each result, and for the
#: cluster to report ready again after its kills.
CHAOS_RESULT_TIMEOUT_S = 60.0


class ShardRouter:
    """Consistent-hash routing of request digests onto shard ids.

    Each shard owns ``replicas`` virtual nodes on a 64-bit ring; a
    digest routes to the first virtual node at or after its own hash.
    When a shard is down (``alive`` excludes it), the walk continues
    around the ring, which spreads the dead shard's keys across the
    survivors instead of dumping them on one neighbor.
    """

    def __init__(self, num_shards: int, replicas: int = REPLICAS) -> None:
        if num_shards < 1:
            raise ValidationError("num_shards must be >= 1")
        if replicas < 1:
            raise ValidationError("replicas must be >= 1")
        self.num_shards = num_shards
        self.replicas = replicas
        ring: List[Tuple[int, int]] = []
        for shard in range(num_shards):
            for vnode in range(replicas):
                ring.append((self._hash(f"shard-{shard}#{vnode}"), shard))
        ring.sort()
        self._hashes = [point for point, _ in ring]
        self._owners = [shard for _, shard in ring]

    @staticmethod
    def _hash(text: str) -> int:
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def route(
        self, digest: str, alive: Optional[Set[int]] = None
    ) -> Optional[int]:
        """The shard owning *digest*, restricted to *alive* shards when
        given.  ``None`` when no candidate shard is alive."""
        if alive is not None and not alive:
            return None
        position = bisect.bisect_right(self._hashes, self._hash(digest))
        count = len(self._owners)
        for step in range(count):
            owner = self._owners[(position + step) % count]
            if alive is None or owner in alive:
                return owner
        return None

    def assignments(
        self,
        digests: Sequence[str],
        alive: Optional[Set[int]] = None,
    ) -> Dict[int, List[str]]:
        """Digests grouped by owning shard (balance/stability probes)."""
        grouped: Dict[int, List[str]] = {}
        for digest in digests:
            owner = self.route(digest, alive=alive)
            if owner is not None:
                grouped.setdefault(owner, []).append(digest)
        return grouped


def incomplete_from_ledger(
    events: Sequence[Mapping[str, Any]],
    shard: Optional[int] = None,
) -> List[int]:
    """Replay the run ledger: request ids submitted but never finished.

    A request's story in the ledger is ``cluster.submit`` (one per
    dispatch attempt; the *last* one names the shard currently
    responsible) closed by ``cluster.done`` or ``cluster.error``.  The
    ids returned are those whose story is still open -- restricted to
    *shard* when given -- in first-submission order, which is exactly
    the set a supervisor re-submits after that shard dies.  Pure
    function of the event list: the offline audit of a restart's
    replay against an exported ledger.
    """
    last_shard: Dict[int, int] = {}
    order: List[int] = []
    done: Set[int] = set()
    for record in events:
        name = record.get("event")
        rid = record.get("rid")
        if rid is None:
            continue
        if name == "cluster.submit":
            if rid not in last_shard:
                order.append(rid)
            last_shard[rid] = record.get("shard", -1)
        elif name in ("cluster.done", "cluster.error"):
            done.add(rid)
    return [
        rid
        for rid in order
        if rid not in done and (shard is None or last_shard[rid] == shard)
    ]


class _Entry:
    """One in-flight cluster request: its content digest (computed
    once, for routing, tracing and the ledger), the set-once future,
    its current shard assignment and (under tracing) its router
    span."""

    __slots__ = (
        "rid", "request", "digest", "future", "shard", "resolved", "trace"
    )

    def __init__(self, rid: int, request: EvalRequest, digest: str) -> None:
        self.rid = rid
        self.request = request
        self.digest = digest
        self.future: "Future[RunResult]" = Future()
        self.shard: Optional[int] = None
        self.resolved = False
        self.trace: Optional[Any] = None  # the open cluster.request span

    @property
    def trace_id(self) -> Optional[str]:
        """The request's trace id for its ``cluster.*`` events, which
        are recorded on threads (completion callbacks, the supervisor)
        that run under no trace context; ``None`` when untraced."""
        return self.trace.trace_id if self.trace is not None else None


class _ShardSlot:
    """One shard position: the current service incarnation plus the
    liveness/progress bookkeeping the supervisor reads."""

    __slots__ = (
        "index",
        "service",
        "incarnation",
        "restarts",
        "completions",
        "progress_mark",
        "progress_at",
    )

    def __init__(self, index: int, service: Any) -> None:
        self.index = index
        self.service = service  # EvaluationService or ProcessShard
        self.incarnation = 0
        self.restarts = 0
        self.completions = 0
        self.progress_mark = 0
        self.progress_at = time.monotonic()


def _probe(service: Any) -> bool:
    """A shard's liveness for the failure detector: a process shard
    checks its process once per sweep (:meth:`ProcessShard.probe`);
    any other shard answers :attr:`alive`."""
    probe = getattr(service, "probe", None)
    return probe() if probe is not None else service.alive


class Supervisor:
    """Failure detector and restarter for a :class:`ShardCluster`.

    Every ``heartbeat_s`` the supervisor polls each shard's dispatcher
    liveness and restarts dead shards (replaying their lost requests).
    ``stall_timeout_s`` adds deadline detection: a shard that holds
    in-flight requests but makes no completion progress for that long
    is declared dead even though its thread still reports alive --
    the wedged-but-breathing failure mode heartbeats alone miss.
    """

    def __init__(
        self,
        cluster: "ShardCluster",
        heartbeat_s: float = 0.02,
        stall_timeout_s: Optional[float] = 30.0,
    ) -> None:
        if heartbeat_s <= 0:
            raise ValidationError("heartbeat_s must be positive")
        if stall_timeout_s is not None and stall_timeout_s <= 0:
            raise ValidationError("stall_timeout_s must be positive")
        self.cluster = cluster
        self.heartbeat_s = heartbeat_s
        self.stall_timeout_s = stall_timeout_s
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-shard-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop_event.wait(self.heartbeat_s):
            try:
                self.cluster.check_shards(
                    stall_timeout_s=self.stall_timeout_s
                )
            except Exception:  # pragma: no cover - defensive
                # A detector crash must not take supervision down.
                continue


class ShardCluster:
    """N supervised :class:`EvaluationService` shards, one front door.

    The constructor mirrors :class:`EvaluationService` (every shard is
    built from the same spec); *cache* is coerced once and shared so
    all shards address one content store.  ``supervise=True`` starts a
    :class:`Supervisor`; chaos tests pass ``supervise=False`` and step
    :meth:`check_shards` by hand for determinism.
    """

    def __init__(
        self,
        *,
        num_shards: int = 2,
        batch_size: int = 8,
        batch_wait_s: float = 0.005,
        max_queue: int = 256,
        parallel: EvaluatorLike = None,
        cache: CacheLike = None,
        policy: Optional[BackoffPolicy] = None,
        breaker_threshold: int = 8,
        breaker_recovery_s: float = 0.5,
        supervise: bool = True,
        heartbeat_s: float = 0.02,
        stall_timeout_s: Optional[float] = 30.0,
        backend: str = "inproc",
        shard_heartbeat_s: float = 0.05,
    ) -> None:
        if num_shards < 1:
            raise ValidationError("num_shards must be >= 1")
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown shard backend {backend!r} "
                f"(choose from {BACKENDS})"
            )
        self.num_shards = num_shards
        self.backend = backend
        self.shard_heartbeat_s = shard_heartbeat_s
        self.router = ShardRouter(num_shards)
        self.breaker_threshold = breaker_threshold
        self.breaker_recovery_s = breaker_recovery_s
        self._service_kwargs: Dict[str, Any] = {
            "batch_size": batch_size,
            "batch_wait_s": batch_wait_s,
            "max_queue": max_queue,
            "parallel": parallel,
            "cache": (
                cache if backend == "process" else coerce_cache(cache)
            ),
            "policy": policy,
        }
        if backend == "process":
            # Fail fast on specs that cannot cross the spawn boundary.
            validate_process_spec(self._service_kwargs)
        self._lock = threading.Lock()
        # Trace stitching state: the EvaluationService scheme one level
        # up, with fresh traces rooted at ``cluster|<digest>``.
        self._trace_slots = TraceSlots("cluster|")
        self._slots = [
            _ShardSlot(index, self._make_service(index))
            for index in range(num_shards)
        ]
        self._inflight: Dict[int, _Entry] = {}
        self._by_shard: Dict[int, Set[int]] = {
            index: set() for index in range(num_shards)
        }
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._rid = 0
        self._stopped = False
        self.restarts = 0
        self.replayed = 0
        self.supervisor: Optional[Supervisor] = None
        if supervise:
            self.supervisor = Supervisor(
                self,
                heartbeat_s=heartbeat_s,
                stall_timeout_s=stall_timeout_s,
            )
            self.supervisor.start()

    def _make_service(self, index: int, incarnation: int = 0) -> Any:
        if self.backend == "process":
            spec = dict(self._service_kwargs)
            if isinstance(spec["cache"], str):
                # One store per shard: the consistent-hash router keeps
                # a digest on one shard, so shards never need to share
                # a file (and never race each other's writes).
                spec["cache"] = f"{spec['cache']}.shard{index}"
            return ProcessShard(
                index,
                spec,
                incarnation=incarnation,
                heartbeat_s=self.shard_heartbeat_s,
            )
        service = EvaluationService(**self._service_kwargs)
        # Stitched request spans carry which shard served them (the
        # process backend's worker sets the same field on its child
        # service, so both backends tag identically).
        service.shard_index = index
        return service

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until every shard is serving (process shards report
        ready once their worker finished importing).  Benches call this
        so spawn cost stays out of measured throughput."""
        ok = True
        for slot in self._slots:
            service = slot.service
            if hasattr(service, "wait_ready"):
                ok = service.wait_ready(timeout) and ok
        return ok

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------ admission

    @property
    def cache(self):
        return self._service_kwargs["cache"]

    def breaker(self, workload: str) -> CircuitBreaker:
        """The per-workload circuit breaker (created on first use)."""
        with self._lock:
            breaker = self._breakers.get(workload)
            if breaker is None:
                breaker = CircuitBreaker(
                    key=f"workload:{workload}",
                    failure_threshold=self.breaker_threshold,
                    recovery_time_s=self.breaker_recovery_s,
                )
                self._breakers[workload] = breaker
            return breaker

    def alive_shards(self) -> Set[int]:
        return {
            slot.index for slot in self._slots if slot.service.alive
        }

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def submit_request(
        self,
        request: EvalRequest,
        *,
        block: bool = False,
        trace_ctx: Optional[TraceContext] = None,
    ) -> "Future[RunResult]":
        """Route *request* to its shard; returns a cluster-level future
        that resolves exactly once even if the owning shard dies and
        the request is replayed elsewhere.  Under tracing the cluster
        opens one ``cluster.request`` span per request (nested under
        *trace_ctx* when a campaign layer supplies one); every dispatch
        attempt -- including chaos replays -- stitches the shard-side
        spans under that single span."""
        check_workload(request.workload)
        if self._stopped:
            raise AdmissionRejected(
                "cluster is stopped", reason="stopped"
            )
        self.breaker(request.workload).check()
        digest = request.digest
        with self._lock:
            self._rid += 1
            entry = _Entry(self._rid, request, digest)
            entry.trace = self._open_cluster_trace(
                request, digest, trace_ctx
            )
            self._inflight[entry.rid] = entry
        try:
            self._dispatch(entry, block=block)
        except AdmissionRejected:
            with self._lock:
                self._inflight.pop(entry.rid, None)
            if entry.trace is not None:
                get_tracer().end_span(entry.trace, status="rejected")
            raise
        return entry.future

    def _open_cluster_trace(
        self,
        request: EvalRequest,
        digest: str,
        trace_ctx: Optional[TraceContext],
    ) -> Optional[Any]:
        """Open the router-level span for one cluster request (``None``
        when tracing is off).  Called under the cluster lock.

        Standalone submissions root a fresh deterministic trace
        (``cluster|<digest>`` material, per-digest occurrence); nested
        submissions take the next per-digest order slot under the
        caller's span, same allocation scheme as
        :meth:`EvaluationService._open_trace` one level down.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return None
        trace_id, parent_id, order = self._trace_slots.place(
            digest, trace_ctx
        )
        return tracer.start_span(
            "cluster.request",
            trace_id=trace_id,
            parent_id=parent_id,
            order=order,
            attributes={
                "workload": request.workload,
                "digest": digest,
                "seed": request.seed,
            },
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

    def _dispatch(self, entry: _Entry, *, block: bool) -> None:
        """Submit *entry* to its routed shard, re-routing around shards
        that die between routing and admission.  Registration in the
        in-flight table happens *before* the shard submit, so a kill
        racing this dispatch can only over-recover (replay a request
        the original submit also lands) -- the set-once future keeps
        delivery exactly-once either way."""
        deadline = time.monotonic() + REROUTE_TIMEOUT_S
        while True:
            if self._stopped:
                raise AdmissionRejected(
                    "cluster is stopped", reason="stopped"
                )
            shard_id = self.router.route(
                entry.digest, alive=self.alive_shards()
            )
            if shard_id is None:
                # Every shard is down; the supervisor is restarting
                # them.  Wait briefly rather than failing the caller.
                if time.monotonic() >= deadline:
                    raise AdmissionRejected(
                        "no live shards", reason="no live shards"
                    )
                time.sleep(0.005)
                continue
            slot = self._slots[shard_id]
            with self._lock:
                entry.shard = shard_id
                self._by_shard[shard_id].add(entry.rid)
            get_ledger().event(
                "cluster.submit",
                trace_id=entry.trace_id,
                rid=entry.rid,
                shard=shard_id,
                digest=entry.digest,
                workload=entry.request.workload,
            )
            # Pass the trace context only when a span is actually open:
            # with tracing off the shard call stays byte-compatible
            # with minimal service stand-ins (tests, custom shards)
            # whose submit_request knows nothing of trace_ctx.
            submit_kwargs: Dict[str, Any] = {}
            if entry.trace is not None:
                submit_kwargs["trace_ctx"] = entry.trace.context
            try:
                shard_future = slot.service.submit_request(
                    entry.request,
                    block=block,
                    **submit_kwargs,
                )
            except AdmissionRejected as exc:
                with self._lock:
                    self._by_shard[shard_id].discard(entry.rid)
                if exc.reason in ("stopped", "draining"):
                    # The shard died under us; route around it.
                    if time.monotonic() >= deadline:
                        raise
                    continue
                raise
            shard_future.add_done_callback(
                partial(self._on_shard_done, entry, shard_id)
            )
            return

    # ----------------------------------------------------------- completion

    def _on_shard_done(
        self, entry: _Entry, shard_id: int, shard_future: "Future"
    ) -> None:
        """First completion wins: resolve the cluster future, close the
        ledger story, feed the breaker.  Later completions of the same
        request id (a replayed duplicate) are discarded here."""
        with self._lock:
            if entry.resolved:
                return
            entry.resolved = True
            self._inflight.pop(entry.rid, None)
            self._by_shard.get(shard_id, set()).discard(entry.rid)
            slot = self._slots[shard_id]
            slot.completions += 1
        breaker = self.breaker(entry.request.workload)
        exc = shard_future.exception()
        if exc is not None:
            get_ledger().event(
                "cluster.error",
                trace_id=entry.trace_id,
                rid=entry.rid,
                shard=shard_id,
                error_type=type(exc).__name__,
            )
            breaker.record_failure()
            if entry.trace is not None:
                get_tracer().end_span(entry.trace, status="error")
            entry.future.set_exception(exc)
            return
        result: RunResult = shard_future.result()
        if result.ok:
            breaker.record_success()
        else:
            breaker.record_failure()
        get_ledger().event(
            "cluster.done",
            trace_id=entry.trace_id,
            rid=entry.rid,
            shard=shard_id,
            status=result.status,
        )
        if entry.trace is not None:
            get_tracer().end_span(
                entry.trace, status="ok" if result.ok else "error"
            )
        entry.future.set_result(result)

    # ----------------------------------------------------- failure handling

    def kill_shard(self, shard_id: int) -> None:
        """Chaos verb: crash shard *shard_id* the way a dead process
        would (queued work stranded, nothing drained).  Recovery is the
        supervisor's job -- or an explicit :meth:`check_shards` call
        when running unsupervised."""
        slot = self._slots[shard_id]
        get_ledger().event("shard.down", shard=shard_id, cause="chaos.kill")
        slot.service.kill()

    def check_shards(
        self, stall_timeout_s: Optional[float] = None
    ) -> List[int]:
        """One failure-detection sweep; returns the restarted shards.

        Heartbeat: a shard whose dispatcher is gone is dead.  Deadline:
        a shard holding in-flight requests whose completion counter has
        not moved for *stall_timeout_s* is dead even if its thread
        still answers -- kill it so the restart path applies.
        """
        restarted: List[int] = []
        for slot in self._slots:
            if self._stopped:
                break
            if not _probe(slot.service):
                get_ledger().event(
                    "shard.down", shard=slot.index, cause="heartbeat"
                )
                self._restart_shard(slot.index, cause="heartbeat")
                restarted.append(slot.index)
                continue
            if stall_timeout_s is None:
                continue
            now = time.monotonic()
            with self._lock:
                backlog = len(self._by_shard.get(slot.index, ()))
                completions = slot.completions
            if backlog == 0 or completions != slot.progress_mark:
                slot.progress_mark = completions
                slot.progress_at = now
            elif now - slot.progress_at >= stall_timeout_s:
                get_ledger().event(
                    "shard.down", shard=slot.index, cause="deadline",
                    stalled_s=now - slot.progress_at, backlog=backlog,
                )
                slot.service.kill()
                self._restart_shard(slot.index, cause="deadline")
                restarted.append(slot.index)
        return restarted

    def _restart_shard(self, shard_id: int, cause: str) -> None:
        """Replace the dead service with a fresh incarnation and replay
        every request the crash stranded."""
        with self._lock:
            slot = self._slots[shard_id]
            slot.incarnation += 1
            slot.restarts += 1
            slot.progress_mark = slot.completions
            slot.progress_at = time.monotonic()
            slot.service = self._make_service(
                shard_id, incarnation=slot.incarnation
            )
            self.restarts += 1
            lost = sorted(self._by_shard.get(shard_id, set()))
        get_ledger().event(
            "shard.restarted",
            shard=shard_id,
            cause=cause,
            incarnation=slot.incarnation,
            lost=len(lost),
        )
        self._replay(shard_id, lost)

    def _replay(self, shard_id: int, lost: List[int]) -> None:
        """Re-submit the requests shard *shard_id* lost, in request-id
        order.  The in-flight table is the replay source: it holds the
        futures, and its open set for the shard is the one
        :func:`incomplete_from_ledger` reads off the run ledger."""
        ledger = get_ledger()
        for rid in lost:
            with self._lock:
                entry = self._inflight.get(rid)
                if entry is None or entry.resolved:
                    continue
                self._by_shard.get(shard_id, set()).discard(rid)
            ledger.event(
                "cluster.replay",
                trace_id=entry.trace_id,
                rid=rid,
                from_shard=shard_id,
                digest=entry.digest,
            )
            self.replayed += 1
            try:
                self._dispatch(entry, block=True)
            except AdmissionRejected as exc:
                if not entry.resolved:
                    entry.future.set_exception(exc)

    # ------------------------------------------------------------- shutdown

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no cluster request is in flight."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            with self._lock:
                if not self._inflight:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.002)

    def shutdown(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop supervision and every shard; stranded cluster futures
        (only possible with ``drain=False``) fail with a cancelled
        :class:`AdmissionRejected`."""
        if drain:
            self.drain(timeout)
        self._stopped = True
        if self.supervisor is not None:
            self.supervisor.stop(timeout)
        for slot in self._slots:
            slot.service.shutdown(drain=drain, timeout=timeout)
        with self._lock:
            stranded = [
                entry
                for entry in self._inflight.values()
                if not entry.resolved
            ]
            for entry in stranded:
                entry.resolved = True
            self._inflight.clear()
        for entry in stranded:
            if entry.trace is not None:
                get_tracer().end_span(entry.trace, status="cancelled")
            if not entry.future.done():
                entry.future.set_exception(
                    AdmissionRejected(
                        "cluster shut down before this request resolved",
                        reason="cancelled",
                    )
                )

    # ------------------------------------------------------------ reporting

    def gauges(self) -> Dict[str, float]:
        """Cheap live gauges for the flight recorder: lock-only reads
        plus per-shard liveness/backlog, no worker round trips (a
        :meth:`snapshot` queries process shards synchronously -- far
        too heavy for a periodic sampler)."""
        with self._lock:
            out: Dict[str, float] = {
                "in_flight": float(len(self._inflight)),
                "restarts": float(self.restarts),
                "replayed": float(self.replayed),
            }
            backlog = {
                index: float(len(rids))
                for index, rids in self._by_shard.items()
            }
        alive = 0
        for slot in self._slots:
            service = slot.service
            up = bool(service.alive)
            alive += int(up)
            out[f"shard{slot.index}.alive"] = float(up)
            out[f"shard{slot.index}.backlog"] = backlog.get(
                slot.index, 0.0
            )
            # EvaluationService exposes queue_depth; ProcessShard the
            # parent-side in_flight counter.
            depth = getattr(service, "queue_depth", None)
            if depth is None:
                depth = getattr(service, "in_flight", 0)
            out[f"shard{slot.index}.queue_depth"] = float(depth)
        out["alive"] = float(alive)
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Cluster-wide metrics: shard snapshots aggregated into the
        same top-level shape :meth:`EvaluationService.snapshot` emits
        (the CLI and benches read ``batches``/``evaluations``), plus
        the robustness accounting (restarts, replays, breakers)."""
        per_shard = []
        for slot in self._slots:
            shard_snapshot = slot.service.snapshot()
            shard_snapshot["shard"] = slot.index
            shard_snapshot["incarnation"] = slot.incarnation
            shard_snapshot["restarts"] = slot.restarts
            per_shard.append(shard_snapshot)
        requests = {
            key: sum(s["requests"][key] for s in per_shard)
            for key in ("submitted", "completed", "failed", "rejected")
        }
        batch_count = sum(s["batches"]["count"] for s in per_shard)
        occupancy = sum(
            s["batches"]["mean_occupancy"] * s["batches"]["count"]
            for s in per_shard
        )
        evaluations = {
            key: sum(s["evaluations"][key] for s in per_shard)
            for key in ("computed", "cache_hits", "deduped", "retries")
        }
        served = (
            evaluations["computed"]
            + evaluations["cache_hits"]
            + evaluations["deduped"]
        )
        evaluations["cache_hit_ratio"] = (
            evaluations["cache_hits"] / served if served else 0.0
        )
        with self._lock:
            breakers = {
                name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())
            }
            in_flight = len(self._inflight)
        return {
            "shards": self.num_shards,
            "alive": sorted(self.alive_shards()),
            "restarts": self.restarts,
            "replayed": self.replayed,
            "in_flight": in_flight,
            "requests": requests,
            "batches": {
                "count": batch_count,
                "mean_occupancy": (
                    occupancy / batch_count if batch_count else 0.0
                ),
            },
            "evaluations": evaluations,
            "breakers": breakers,
            "per_shard": per_shard,
        }


def run_chaos_campaign(
    requests: Sequence[EvalRequest],
    policy: Optional[ChaosPolicy] = None,
    *,
    num_shards: int = 4,
    batch_size: int = 8,
    batch_wait_s: float = 0.002,
    parallel: EvaluatorLike = None,
    cache: CacheLike = None,
    supervise: bool = True,
    heartbeat_s: float = 0.02,
    stall_timeout_s: Optional[float] = 30.0,
    breaker_threshold: int = 32,
    recorder: Optional[Any] = None,
    backend: str = "inproc",
) -> Tuple[List[RunResult], Dict[str, Any]]:
    """Serve *requests* through a shard cluster under a chaos schedule.

    The driver walks the request stream; before admitting request *i*
    it performs every :class:`~repro.resilience.ChaosEvent` the policy
    pins there (``kill`` a shard, ``delay`` the submission path,
    ``burst`` duplicate copies).  Returns the results in request order
    plus a report the bench's ``--check`` gate asserts on: zero lost,
    zero duplicated, latency summary, restart/replay counts.

    *backend* picks the shard hosting (see :class:`ShardCluster`); on
    ``"process"`` a chaos ``kill`` SIGKILLs a real worker process, and
    the campaign starts once every worker reported ready.  Each kill
    of a process shard then also reports ``restart_s``: the seconds
    from the SIGKILL to the replacement worker's ready message.

    A :class:`~repro.obs.recorder.FlightRecorder` passed as *recorder*
    is attached to the cluster's gauges, armed to dump on the chaos
    kill events, started for the campaign and stopped afterwards (its
    samples and dumps are kept for the caller to export).
    """
    policy = policy or ChaosPolicy()
    cluster = ShardCluster(
        num_shards=num_shards,
        batch_size=batch_size,
        batch_wait_s=batch_wait_s,
        parallel=parallel,
        cache=cache,
        supervise=supervise,
        heartbeat_s=heartbeat_s,
        stall_timeout_s=stall_timeout_s,
        breaker_threshold=breaker_threshold,
        backend=backend,
    )
    if recorder is not None:
        recorder.attach_cluster(cluster)
        recorder.watch_ledger()
        recorder.start()
    latencies: List[float] = []
    latency_lock = threading.Lock()

    def _observe(started: float, _future: "Future") -> None:
        elapsed = time.perf_counter() - started
        with latency_lock:
            latencies.append(elapsed)

    futures: List["Future[RunResult]"] = []
    extra_futures: List["Future[RunResult]"] = []
    kills: List[Dict[str, Any]] = []
    killed_at: List[float] = []
    try:
        cluster.wait_ready()
        started_at = time.perf_counter()
        for index, request in enumerate(requests):
            for event in policy.actions_at(index):
                if event.action == "kill":
                    shard_id = event.shard % num_shards
                    kills.append(
                        {"at_request": index, "shard": shard_id}
                    )
                    cluster.kill_shard(shard_id)
                    killed_at.append(time.monotonic())
                    if not supervise:
                        cluster.check_shards()
                elif event.action == "delay":
                    time.sleep(event.delay_s)
                elif event.action == "burst":
                    for _ in range(event.copies):
                        t0 = time.perf_counter()
                        future = cluster.submit_request(
                            request, block=True
                        )
                        future.add_done_callback(partial(_observe, t0))
                        extra_futures.append(future)
            t0 = time.perf_counter()
            future = cluster.submit_request(request, block=True)
            future.add_done_callback(partial(_observe, t0))
            futures.append(future)

        results: List[RunResult] = []
        lost = 0
        errors = 0
        for future in futures:
            try:
                result = future.result(timeout=CHAOS_RESULT_TIMEOUT_S)
            except Exception:
                lost += 1
                results.append(None)  # type: ignore[arg-type]
                continue
            results.append(result)
            if not result.ok:
                errors += 1
        extra_lost = 0
        for future in extra_futures:
            try:
                future.result(timeout=CHAOS_RESULT_TIMEOUT_S)
            except Exception:
                extra_lost += 1
        elapsed = time.perf_counter() - started_at
        if killed_at:
            cluster.wait_ready(CHAOS_RESULT_TIMEOUT_S)
        for kill, at in zip(kills, killed_at):
            ready_at = getattr(
                cluster._slots[kill["shard"]].service, "ready_at", None
            )
            if ready_at is not None and ready_at >= at:
                kill["restart_s"] = ready_at - at

        ledger = get_ledger()
        duplicates = 0
        if ledger.enabled:
            seen: Dict[int, int] = {}
            for record in ledger.events():
                if record.get("event") == "cluster.done":
                    rid = record.get("rid")
                    seen[rid] = seen.get(rid, 0) + 1
            duplicates = sum(1 for count in seen.values() if count > 1)

        snapshot = cluster.snapshot()
        report = {
            "num_requests": len(requests),
            "num_shards": num_shards,
            "policy": policy.to_json(),
            "seed": policy.seed,
            "kills": kills,
            "completed": len(requests) - lost,
            "lost": lost,
            "errors": errors,
            "extras": len(extra_futures),
            "extra_lost": extra_lost,
            "duplicate_results": duplicates,
            "restarts": cluster.restarts,
            "replayed": cluster.replayed,
            "elapsed_s": elapsed,
            "latency_s": _summary(latencies),
            "snapshot": snapshot,
        }
        return results, report
    finally:
        if recorder is not None:
            recorder.stop()
        cluster.shutdown(drain=False)
