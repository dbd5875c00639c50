"""Process-backed service shards: one :class:`EvaluationService` per OS
process.

The in-process shards of :class:`~repro.serve.cluster.ShardCluster`
prove the fault-tolerance contract but share one GIL, so N shards never
buy N cores.  :class:`ProcessShard` hosts each shard's service in its
own worker process (``multiprocessing`` spawn context: no inherited
locks from the threaded parent), talking to it over one duplex pipe
(a ``multiprocessing`` ``Connection``).  Each side sends from the
calling thread under its own send lock and reads with a
``heartbeat_s``-bounded wait on one ``select.poll`` object, registered
once per pipe end, then ``recv()``:

- the parent keeps the shard-local future table, so the cluster's
  set-once exactly-once futures work unchanged across the process
  boundary;
- every request crosses in one form, the ``EvalRequest`` wire dict
  pickled by the pipe (ndarray configs included), next to the digest
  the router already computed, which the child's rebuilt request
  keeps instead of hashing again.  The parent-side admission bound
  caps how many requests -- and so how many bytes a blocked send can
  have waiting -- are in flight;
- the child streams back ``done`` records (``RunResult`` wire form)
  and, when idle for ``heartbeat_s`` and at stop, one ``obs`` envelope
  of its drained spans, ledger events and metrics (pillars on at spawn
  as in the parent), which the parent absorbs tagged with the shard
  id.  :meth:`ProcessShard.snapshot` pulls the child's
  :class:`~repro.serve.metrics.ServiceMetrics` snapshot;
- process liveness *is* the heartbeat: ``kill -9`` on the child makes
  :attr:`ProcessShard.alive` go false (a caller blocked on admission
  is released with ``reason="stopped"`` and rerouted by the cluster),
  the :class:`~repro.serve.cluster.Supervisor` restarts the slot with a
  fresh incarnation, and the cluster replays the stranded requests
  onto survivors exactly as in the in-process design.  ``alive`` reads
  flags, so routing and admission make no ``waitpid`` call: the pump
  sets the exit flag on EOF or when an idle poll finds the process
  dead, and the supervisor's sweep probes each process once
  (:meth:`ProcessShard.probe`).

A shard starts with its serving path only: the ``repro`` packages
export their names lazily and cache digests look for numpy types only
once numpy is loaded, so a shard that serves cache hits imports the
service, its evaluator and cache, the observability pillars and retry
-- no numpy, no subsystem adapter, none of the cluster, capacity,
load-generator, flight-recorder, SLO or chaos modules.  It imports a
workload's adapter (and numpy with it) at its first miss on that
workload.  First starts and supervised restarts pay the same
spawn-to-ready time.

A shard killed after computing a result but before the parent drained
the response pipe can still deliver that result; the cluster's set-once
future discards the replayed duplicate, so delivery stays exactly-once
either way.

Spawn-context caveat: the child re-imports the parent's ``__main__``,
so the creating program must be import-safe -- a real module or script
whose top level is guarded by ``if __name__ == "__main__":``.  Driving
``backend="process"`` from a stdin-fed or interactive interpreter fails
(the child cannot re-import ``<stdin>`` and dies before reporting
ready); all repo surfaces (``repro`` CLI, pytest, the bench scripts)
are spawn-safe.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.api import RunResult
from repro.core.errors import ValidationError
from repro.obs.envelope import absorb
from repro.obs.ledger import get_ledger
from repro.obs.metrics import get_metrics
from repro.obs.trace import TraceContext, get_tracer
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import AdmissionRejected, EvalRequest

#: How long :meth:`ProcessShard.wait_ready` waits for a spawned worker
#: to finish importing when the caller names no timeout.
START_TIMEOUT_S = 60.0

#: Keys of the picklable service spec a worker process builds its
#: :class:`EvaluationService` from.  ``parallel`` must be None/bool/int
#: and ``cache`` None or a path string -- live objects cannot cross the
#: spawn boundary.
SPEC_KEYS = (
    "batch_size",
    "batch_wait_s",
    "max_queue",
    "parallel",
    "cache",
    "policy",
    "default_timeout_s",
)


def validate_process_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Check *spec* is spawn-safe and return a plain dict of it."""
    out = {key: spec.get(key) for key in SPEC_KEYS}
    parallel = out["parallel"]
    if parallel is not None and not isinstance(parallel, (bool, int)):
        raise ValidationError(
            "process shards take parallel=None/bool/int; a live "
            "evaluator object cannot cross the process boundary"
        )
    cache = out["cache"]
    if cache is not None and not isinstance(cache, str):
        raise ValidationError(
            "process shards take cache=None or a path string; a live "
            "ResultCache cannot cross the process boundary"
        )
    return out


def _dumps(message: Tuple) -> bytes:
    """One pipe message as pickle bytes (``recv`` unpickles them).

    Pickled before the send lock is taken, so pickling a large payload
    does not hold up the other senders, and into plain bytes:
    ``Connection.send`` sends a view of a ``BytesIO``, and when that
    send fails the view in the traceback makes freeing the buffer an
    ignored ``BufferError``.
    """
    return pickle.dumps(message, pickle.HIGHEST_PROTOCOL)


def _reader(conn: Any) -> Callable[[float], bool]:
    """``conn.poll`` for one pipe end, its descriptor registered once.

    ``Connection.poll`` builds and closes a selector on every call; a
    loop that waits on one pipe for its whole life registers it with
    one ``select.poll`` object instead.  EOF and a closed end read as
    ready, so the ``recv`` that follows raises as it would after
    ``poll``.
    """
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)
    return lambda timeout_s: bool(poller.poll(timeout_s * 1000.0))


def _shard_worker_main(
    shard_id: int,
    incarnation: int,
    conn: Any,
    spec: Dict[str, Any],
    ledger_on: bool,
    tracing_on: bool,
    metrics_on: bool,
    heartbeat_s: float,
) -> None:
    """Worker-process entry point: host one shard's service, talking
    to the parent over the duplex pipe end *conn*.

    Protocol (parent -> child): ``("submit", rid, request_json,
    digest)`` -- plus a trailing trace wire context when the parent
    runs under tracing -- ``("snapshot", token)``, ``("stop", drain)``.
    *digest* is the request's content address, already computed by the
    parent's router; the rebuilt request carries it, so the shard does
    not hash the request again.  Child -> parent: ``("ready", pid)``,
    ``("done", rid, result_json)``, ``("reject", rid, reason,
    message)``, ``("obs", envelope)``, ``("snapshot", token,
    snapshot)``, ``("stopped", snapshot)``.  Every child message is
    prefixed with ``(kind, shard_id, incarnation, ...)`` so the parent
    can attribute it even in logs.  The main loop and the service's
    done-callbacks both send, under one lock.  The loop ends on
    ``stop``, or when the parent's end of the pipe is gone.
    """
    from repro.serve.service import EvaluationService

    # The shard is started daemonic, so an owner exiting without a
    # shutdown never waits on it; but daemonic processes may not have
    # children, and a ``parallel`` shard's evaluator forks a pool.  Its
    # workers exit on their own once this process is gone.
    multiprocessing.current_process().daemon = False
    tracer, ledger, registry = get_tracer(), get_ledger(), get_metrics()
    if tracing_on:
        tracer.enable()
    if ledger_on:
        ledger.enable()
    if metrics_on:
        registry.enable()
    service = EvaluationService(**spec)
    service.shard_index = shard_id
    send_lock = threading.Lock()

    def _send(kind: str, *payload: Any) -> None:
        data = _dumps((kind, shard_id, incarnation) + payload)
        try:
            with send_lock:
                conn.send_bytes(data)
        except OSError:
            pass  # the parent is gone; the main loop sees EOF and exits

    def _flush() -> None:
        # Drained, so each record ships once and the stores stay small.
        envelope = {
            "spans": tracer.drain() if tracer.enabled else [],
            "events": ledger.drain() if ledger.enabled else [],
            "metrics": registry.drain() if registry.enabled else {},
        }
        if any(envelope.values()):
            _send("obs", envelope)

    def _on_done(rid: int, future: "Future[RunResult]") -> None:
        exc = future.exception()
        if exc is not None:
            _send(
                "reject", rid,
                getattr(exc, "reason", "error"), str(exc),
            )
            return
        _send("done", rid, future.result().to_json())

    ready = _reader(conn)
    _send("ready", os.getpid())
    while True:
        try:
            if not ready(heartbeat_s):
                _flush()
                continue
            message = conn.recv()
        except (EOFError, OSError):
            # The parent is gone: nobody is left to answer.
            service.shutdown(drain=False)
            break
        kind = message[0]
        if kind == "submit":
            rid, payload, digest = message[1:4]
            wire = message[4] if len(message) > 4 else None
            try:
                future = service.submit_request(
                    EvalRequest._from_wire(payload, digest),
                    block=True,
                    trace_ctx=(
                        TraceContext.from_wire(wire)
                        if wire is not None and tracer.enabled
                        else None
                    ),
                )
            except Exception as exc:
                _send(
                    "reject", rid,
                    getattr(exc, "reason", "error"), str(exc),
                )
                continue
            future.add_done_callback(partial(_on_done, rid))
        elif kind == "snapshot":
            _send("snapshot", message[1], service.snapshot())
        elif kind == "stop":
            service.shutdown(drain=bool(message[1]))
            _flush()
            _send("stopped", service.snapshot())
            break


class ProcessShard:
    """One shard of a :class:`~repro.serve.cluster.ShardCluster`, hosted
    in its own worker process.

    Implements the same surface the cluster drives on an in-process
    :class:`EvaluationService` shard -- ``submit_request``/``alive``/
    ``kill``/``shutdown``/``snapshot`` -- with the future table kept on
    the parent side of the pipe, which is what lets the cluster's
    exactly-once and replay machinery work unchanged when the
    shard is a real process that can die under ``kill -9``.
    """

    def __init__(
        self,
        index: int,
        spec: Mapping[str, Any],
        *,
        incarnation: int = 0,
        heartbeat_s: float = 0.05,
    ) -> None:
        if heartbeat_s <= 0:
            raise ValidationError("heartbeat_s must be positive")
        self.index = index
        self.incarnation = incarnation
        self.heartbeat_s = heartbeat_s
        self._spec = validate_process_spec(spec)
        self.max_queue = int(self._spec["max_queue"])
        self._ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = self._ctx.Pipe()
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._futures: Dict[int, "Future[RunResult]"] = {}
        self._rid = 0
        self._submitted = 0
        self._finished = 0
        self._killed = False
        self._stopped = False
        # Set once the worker is known to be gone (pump EOF, or a
        # liveness probe): ``alive`` reads flags, not the process.
        self._exited = False
        self._ready = threading.Event()
        self._last_snapshot: Dict[str, Any] = ServiceMetrics().snapshot()
        self._snapshot_waiters: Dict[int, Tuple[threading.Event, list]] = {}
        self._snapshot_token = 0
        self.pid: Optional[int] = None
        #: ``time.monotonic()`` when the worker reported ready.
        self.ready_at: Optional[float] = None
        self._process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                index,
                incarnation,
                child_conn,
                self._spec,
                get_ledger().enabled,
                get_tracer().enabled,
                get_metrics().enabled,
                heartbeat_s,
            ),
            name=f"repro-shard-{index}.{incarnation}",
            daemon=True,
        )
        self._process.start()
        # The child holds its own copy now; dropping ours lets the
        # pump see EOF once the child (and any pool worker that
        # inherited its end) is gone.
        child_conn.close()
        self._pump_thread = threading.Thread(
            target=self._pump,
            name=f"repro-shard-{index}.{incarnation}-pump",
            daemon=True,
        )
        self._pump_thread.start()

    # ------------------------------------------------------------ liveness

    @property
    def alive(self) -> bool:
        """Process liveness doubles as the heartbeat: a ``kill -9`` is
        visible here within one supervisor sweep.  Reads flags only, so
        routing and admission make no ``waitpid`` call; the pump and
        :meth:`probe` set the exit flag."""
        return not (self._stopped or self._killed or self._exited)

    def probe(self) -> bool:
        """:attr:`alive`, after one ``waitpid`` on the worker: the
        supervisor's once-per-sweep check, which sees a ``kill -9``
        even while pool workers holding the pipe keep the pump from
        reading EOF."""
        if self.alive and not self._process.is_alive():
            self._mark_exited()
        return self.alive

    def _mark_exited(self) -> None:
        with self._lock:
            self._exited = True
            # A caller blocked on admission is released as "stopped".
            self._space.notify_all()

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until the worker finished importing and reported ready
        (benches call this so spawn cost stays out of measured time)."""
        return self._ready.wait(
            START_TIMEOUT_S if timeout is None else timeout
        )

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._submitted - self._finished

    # ------------------------------------------------------------ admission

    def submit_request(
        self,
        request: EvalRequest,
        *,
        block: bool = False,
        trace_ctx: Optional[TraceContext] = None,
    ) -> "Future[RunResult]":
        """Send *request* to the worker; parent-side bounded
        admission mirrors the child service's ``max_queue`` contract.
        A caller blocked on a full queue is released with
        ``reason="stopped"`` once the worker process is gone, however
        it died.  The request is pickled onto the pipe from the calling
        thread; a send that fails (the worker is gone) raises
        ``reason="stopped"`` so the cluster reroutes.  *trace_ctx*
        rides the submit message as a trailing wire element, so the
        child service stitches its spans under the caller's (router's)
        span."""
        if not self.alive:
            raise AdmissionRejected(
                "shard process is not running", reason="stopped"
            )
        future: "Future[RunResult]" = Future()
        with self._lock:
            while self._submitted - self._finished >= self.max_queue:
                if not block:
                    raise AdmissionRejected(
                        f"shard queue is full ({self.max_queue} "
                        "requests); retry later or submit with "
                        "block=True",
                        reason="queue full",
                    )
                self._space.wait(self.heartbeat_s)
                if not self.alive:
                    raise AdmissionRejected(
                        "shard process is not running", reason="stopped"
                    )
            self._rid += 1
            rid = self._rid
            self._futures[rid] = future
            self._submitted += 1
        tracer = get_tracer()
        wire = (
            trace_ctx.to_wire()
            if trace_ctx is not None and tracer.enabled
            else None
        )
        message = ("submit", rid, request.to_json(), request.digest)
        try:
            self._send(message + ((wire,) if wire is not None else ()))
        except Exception as exc:
            with self._lock:
                self._futures.pop(rid, None)
                self._submitted -= 1
            raise AdmissionRejected(
                f"shard command pipe is down: {exc}", reason="stopped"
            )
        return future

    def _send(self, message: Tuple) -> None:
        data = _dumps(message)
        with self._send_lock:
            self._conn.send_bytes(data)

    # ------------------------------------------------------------ responses

    def _pump(self) -> None:
        """Drain the pipe, resolving shard-local futures and merging
        cross-process observability back into this process.

        EOF is not the only death signal: pool workers of a
        ``parallel`` shard inherit the child's end of the pipe and
        keep it open for a while after the child is gone, so an idle
        poll also checks that the process still lives."""
        ready = _reader(self._conn)
        while True:
            try:
                if not ready(self.heartbeat_s):
                    if self._process.is_alive():
                        continue
                    self._mark_exited()
                    if self._stopped or self._killed or self._ready.is_set():
                        # Nothing more will come; a crash (not via
                        # kill()) leaves futures stranded for the
                        # cluster to replay.
                        break
                    continue
                message = self._conn.recv()
            except (EOFError, OSError):
                break
            self._handle(message)
        self._mark_exited()
        # Unblock anyone waiting for a synchronous snapshot.
        with self._lock:
            waiters = list(self._snapshot_waiters.values())
            self._snapshot_waiters.clear()
        for event, _slot in waiters:
            event.set()

    def _handle(self, message: Tuple) -> None:
        kind = message[0]
        payload = message[3:]
        if kind == "ready":
            self.pid = payload[0]
            self.ready_at = time.monotonic()
            self._ready.set()
        elif kind == "done":
            rid, record = payload
            self._resolve(rid, result=RunResult.from_json(record))
        elif kind == "reject":
            rid, reason, text = payload
            self._resolve(
                rid,
                error=AdmissionRejected(
                    f"shard {self.index} rejected request: {text}",
                    reason=reason,
                ),
            )
        elif kind == "obs":
            absorb(payload[0], shard=self.index)
        elif kind == "snapshot":
            token, snapshot = payload
            self._last_snapshot = snapshot
            with self._lock:
                waiter = self._snapshot_waiters.pop(token, None)
            if waiter is not None:
                waiter[1].append(snapshot)
                waiter[0].set()
        elif kind == "stopped":
            self._last_snapshot = payload[0]

    def _resolve(
        self,
        rid: int,
        *,
        result: Optional[RunResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            future = self._futures.pop(rid, None)
            if future is not None:
                self._finished += 1
                self._space.notify_all()
        if future is None:
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    # ------------------------------------------------------------ lifecycle

    def kill(self) -> None:
        """Crash the shard the way an OOM kill would: SIGKILL the
        worker, strand its futures.  Recovery (restart + replay)
        is the cluster supervisor's job."""
        self._killed = True
        try:
            self._process.kill()
        except Exception:
            pass
        with self._lock:
            self._space.notify_all()
        get_ledger().event(
            "shard.killed", shard=self.index, pid=self.pid
        )

    def shutdown(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop the worker process (gracefully draining by default) and
        fail any still-unresolved local futures."""
        if self._stopped:
            return
        self._stopped = True
        join_s = 10.0 if timeout is None else timeout
        if self._process.is_alive() and not self._killed:
            try:
                self._send(("stop", bool(drain)))
            except Exception:
                pass
            self._process.join(join_s)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(5.0)
        self._pump_thread.join(max(1.0, self.heartbeat_s * 4))
        with self._lock:
            stranded = list(self._futures.values())
            self._futures.clear()
            self._space.notify_all()
        for future in stranded:
            if not future.done():
                future.set_exception(
                    AdmissionRejected(
                        "shard shut down before this request resolved",
                        reason="cancelled",
                    )
                )
        self._conn.close()

    # ------------------------------------------------------------ reporting

    def snapshot(self, timeout_s: float = 1.0) -> Dict[str, Any]:
        """The child service's metrics snapshot.

        Queries the live worker synchronously; a dead or unresponsive
        worker answers with the last snapshot it sent (the ``stopped``
        snapshot once it shut down), so the cluster aggregate never
        blocks on a corpse.
        """
        if self.alive and self._ready.is_set():
            with self._lock:
                self._snapshot_token += 1
                token = self._snapshot_token
                event = threading.Event()
                slot: list = []
                self._snapshot_waiters[token] = (event, slot)
            try:
                self._send(("snapshot", token))
            except Exception:
                with self._lock:
                    self._snapshot_waiters.pop(token, None)
            else:
                if event.wait(timeout_s) and slot:
                    return dict(slot[0])
                with self._lock:
                    self._snapshot_waiters.pop(token, None)
        return dict(self._last_snapshot)


__all__ = [
    "ProcessShard",
    "SPEC_KEYS",
    "START_TIMEOUT_S",
    "validate_process_spec",
]
