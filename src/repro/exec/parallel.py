"""Parallel evaluation of independent simulator cells.

The paper's campaign grids (DSE objective evaluations, hetero
device x storage matrices, IMC crossbar sweeps) are embarrassingly
parallel: every cell is a pure function of its configuration.
:class:`ParallelEvaluator` fans those cells out over
:mod:`concurrent.futures` -- a process pool for the CPU-bound
simulators (the default), a thread pool fallback for callables that do
not pickle, or a serial mode that keeps exactly the legacy execution
path -- while guaranteeing the properties campaigns rely on:

- **deterministic ordering**: results come back in task-submission
  order regardless of completion order, so downstream reductions
  (Pareto fronts, float sums) are bit-identical to a serial run;
- **determinism under parallelism**: the engine never injects
  randomness; callers derive per-cell seeds from the cell *key* (not
  from submission order), so worker scheduling cannot perturb results;
- **per-task timeout**: a cell that exceeds ``timeout_s`` raises the
  existing :class:`~repro.core.errors.SimulationTimeout`;
- **content-addressed reuse**: an attached
  :class:`~repro.exec.cache.ResultCache` memoizes cells across calls
  and processes, with duplicate keys inside one batch computed once;
- **pickle transport**: process-pool tasks and results cross the
  process boundary as pickles; the thread/serial backends share the
  parent's address space and never pickle;
- **worker-crash recovery**: a dead worker process
  (``BrokenProcessPool``) no longer aborts the whole map as a raw
  RuntimeError.  Completed chunks are kept, suspect tasks are
  re-executed in fresh single-task pools (exact crash attribution),
  and a task whose digest has crashed its worker ``quarantine_after``
  times is *quarantined*: it is never dispatched again and surfaces as
  a typed :class:`~repro.core.errors.WorkerCrashError` instead of
  poisoning every batch.  Tasks that keep failing environmentally
  (without quarantine evidence) fall back to in-process serial
  execution, so one flaky pool never loses a campaign;
- **one pool per evaluator**: the executor is created on the first
  multi-task map and reused by every later one, so a map pays task
  transport, not a fork and join of its workers.  :meth:`close` (or
  the ``with`` block) joins the workers, and garbage collection
  releases the pool of an evaluator dropped unclosed; a broken or
  timed-out pool is discarded and the next map starts a fresh one.  Workers are forked once, so a workload registered after
  that is recycled in: a map whose registry generation differs from
  the pool's forks new workers first.  A worker exits on its own when
  the process that started its pool dies, so a SIGKILLed owner (a
  process shard) leaves no idle workers behind.
"""

from __future__ import annotations

import concurrent.futures as _futures
import os
import pickle
import signal
import sys
import threading
import time
import weakref
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.api import registry_generation
from repro.core.errors import (
    SimulationTimeout,
    ValidationError,
    WorkerCrashError,
)
from repro.exec.cache import ResultCache
from repro.obs.trace import profiled

_MODES = ("process", "thread", "serial")


#: ``prctl`` option and the signal it arms: the kernel sends a worker
#: this signal when the thread that forked it exits.
_PR_SET_PDEATHSIG = 1
_PARENT_DEATH_SIGNAL = signal.SIGUSR1


def _arm_parent_death_signal() -> bool:
    """Ask Linux to signal this process when its parent exits."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        return prctl(
            _PR_SET_PDEATHSIG, int(_PARENT_DEATH_SIGNAL), 0, 0, 0
        ) == 0
    except (OSError, AttributeError):
        return False


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the pool's owner is gone.

    The death signal also fires when the *thread* that forked the
    worker exits while its process lives on, so the handler exits only
    when the worker was re-parented.  Without ``prctl`` a daemon thread
    polls ``os.getppid()`` instead.
    """
    parent = os.getppid()

    def _check(*_: Any) -> None:
        if os.getppid() != parent:
            os._exit(1)

    # Handler first: the signal's default action would kill the worker.
    signal.signal(_PARENT_DEATH_SIGNAL, _check)
    if _arm_parent_death_signal():
        _check()  # the parent may have died before the signal was armed
        return

    def _poll() -> None:
        while True:
            _check()
            time.sleep(0.25)

    threading.Thread(
        target=_poll, name="repro-parent-watch", daemon=True
    ).start()


def _process_pool(max_workers: int) -> _futures.ProcessPoolExecutor:
    return _futures.ProcessPoolExecutor(
        max_workers, initializer=_exit_with_parent
    )


def _run_chunk(fn: Callable[[Any], Any], chunk: List[Any]) -> List[Any]:
    """Evaluate one chunk of tasks in a worker (module-level: picklable)."""
    return [fn(task) for task in chunk]


def _crash_error(
    chunks: List[List[Any]], futures: List["_futures.Future"]
) -> WorkerCrashError:
    """Partition a broken pool's work into completed values and suspect
    task indices.  A dead worker breaks the whole pool, so every chunk
    that did not finish cleanly is suspect -- the crash cannot be
    attributed more precisely here; the recovery path narrows it down
    with single-task pools.
    """
    completed: List[Tuple[int, Any]] = []
    suspects: List[int] = []
    for future in futures:
        try:  # let the executor's manager thread settle every future
            future.exception(timeout=10.0)
        except (_futures.TimeoutError, _futures.CancelledError):
            pass
    base = 0
    for chunk, future in zip(chunks, futures):
        if future.done() and not future.cancelled() \
                and future.exception() is None:
            for offset, value in enumerate(future.result()):
                completed.append((base + offset, value))
        else:
            suspects.extend(range(base, base + len(chunk)))
        base += len(chunk)
    return WorkerCrashError(
        f"worker process died mid-batch: {len(suspects)} task(s) suspect, "
        f"{len(completed)} completed before the crash",
        completed=completed,
        suspect_indices=suspects,
    )


def _traced_call(payload: tuple) -> dict:
    """Evaluate one task under a propagated trace context (module-level:
    picklable across the process-pool hop).

    The payload carries the original task index, which becomes the
    ``exec.task`` span's explicit *order*: span ids derive from
    ``(trace, parent, name, order)``, so a worker process with a fresh
    tracer allocates exactly the ids a serial run would -- the property
    the serial-vs-parallel byte-identity test pins.  Spans and ledger
    events land in local buffers and ride back in the envelope.
    """
    fn, task, index, wire = payload
    from repro.obs.ledger import get_ledger
    from repro.obs.trace import TraceContext, get_tracer

    tracer = get_tracer()
    tracer.enable()
    ledger = get_ledger()
    if wire.get("ledger"):
        ledger.enable()
    ctx = TraceContext.from_wire(wire)
    spans: List[dict] = []
    events: List[dict] = []
    span = tracer.start_span(
        "exec.task",
        trace_id=ctx.trace_id,
        parent_id=ctx.span_id,
        order=index,
        attributes={"index": index},
    )
    status = "ok"
    try:
        with tracer.activate(span.context, sink=spans), \
                ledger.capture(events):
            try:
                value = fn(task)
            except BaseException:
                status = "error"
                raise
    finally:
        tracer.end_span(span, status=status, sink=spans)
    return {"__obs_task__": True, "value": value, "spans": spans,
            "events": events}


def _terminate(pool: _futures.Executor) -> None:
    """Stop *pool* now, killing process workers mid-task.

    ``shutdown`` alone lets a worker finish the runaway cell it is
    stuck in, and Python 3.10-3.12 offer no public way to stop one, so
    the worker processes are terminated first and then reaped.  A
    broken or already shut-down pool has no live worker left to kill.
    Threads cannot be killed: a thread pool only drops its queued work.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        process.terminate()
    pool.shutdown(wait=bool(processes), cancel_futures=True)
    for process in processes:
        process.join()


def _shutdown_all(executors: Dict[str, _futures.Executor],
                  wait: bool = True) -> None:
    """Empty *executors*, shutting every pool down (joining its workers
    when *wait*)."""
    while executors:
        _, pool = executors.popitem()
        pool.shutdown(wait=wait)


class ParallelEvaluator:
    """Map pure evaluation functions over task grids, in parallel.

    ``max_workers`` defaults to the CPU count; ``chunksize`` amortizes
    inter-process overhead for very cheap cells (the per-task timeout
    budget scales with the chunk length).  ``mode`` selects the
    executor: ``"process"`` for CPU-bound simulator cells (tasks and
    the function must pickle), ``"thread"`` for unpicklable callables,
    ``"serial"`` for the legacy in-order loop (still cache-aware).

    The evaluator owns its worker pool: created lazily, reused across
    maps, joined by :meth:`close`.  An evaluator that is pickled
    travels without its pools and lock.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        mode: str = "process",
        chunksize: int = 1,
        timeout_s: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        crash_retries: int = 2,
        quarantine_after: int = 3,
    ) -> None:
        if mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}")
        if max_workers is not None and max_workers < 1:
            raise ValidationError("max_workers must be >= 1")
        if chunksize < 1:
            raise ValidationError("chunksize must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValidationError("timeout_s must be positive")
        if crash_retries < 0:
            raise ValidationError("crash_retries must be >= 0")
        if quarantine_after < 1:
            raise ValidationError("quarantine_after must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.mode = mode
        self.chunksize = chunksize
        self.timeout_s = timeout_s
        self.cache = cache
        self.crash_retries = crash_retries
        self.quarantine_after = quarantine_after
        self.tasks_seen = 0
        self.tasks_cached = 0
        self.tasks_computed = 0
        self.worker_crashes = 0
        self.tasks_quarantined = 0
        # Always 0 (every task travels by pickle); kept because the
        # perfbench census still reads it.
        self.shm_tasks = 0
        self._crash_counts: Dict[str, int] = {}
        self._quarantined: Dict[str, int] = {}
        self._init_pools()

    def _init_pools(self) -> None:
        # Executors by kind ("process", "thread"), created on demand;
        # the registry generation the process pool was forked at.
        self._lock = threading.Lock()
        self._executors: Dict[str, _futures.Executor] = {}
        self._forked_at = -1
        # Safety net for an evaluator dropped unclosed.  Garbage
        # collection may run on any thread, even one of these pools'
        # own, so the finalizer must not join them.
        self._finalizer = weakref.finalize(
            self, _shutdown_all, self._executors, False
        )

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        for name in ("_lock", "_executors", "_forked_at", "_finalizer"):
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._init_pools()

    def close(self, wait: bool = True) -> None:
        """Shut the worker pools down, joining their workers unless
        ``wait=False``.  Idempotent; the evaluator stays usable -- the
        next multi-task map starts a new pool."""
        with self._lock:
            executors = dict(self._executors)
            self._executors.clear()
        _shutdown_all(executors, wait)

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------- mapping

    @profiled("exec.map")
    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        keys: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """``[fn(t) for t in tasks]`` with caching and parallelism.

        *keys*, when given, must align with *tasks*: each key is the
        content digest of its task, used for cache lookup and in-batch
        deduplication (two tasks with the same key are computed once).
        Results are returned in task order.
        """
        tasks = list(tasks)
        if keys is not None and len(keys) != len(tasks):
            raise ValidationError("keys must align one-to-one with tasks")
        self.tasks_seen += len(tasks)
        results: List[Any] = [None] * len(tasks)

        # Resolve cache hits and deduplicate identical pending cells.
        pending: List[int] = []  # index of the first occurrence per key
        followers: dict = {}  # key -> indices sharing the computation
        for idx, task in enumerate(tasks):
            key = keys[idx] if keys is not None else None
            if key is not None and self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    results[idx] = hit
                    self.tasks_cached += 1
                    continue
            if key is not None and key in followers:
                followers[key].append(idx)
                continue
            if key is not None:
                followers[key] = []
            pending.append(idx)

        if pending:
            wire = self._trace_wire()
            subkeys = [
                keys[i] if keys is not None else None for i in pending
            ]
            if wire is not None:
                payloads = [(fn, tasks[i], i, wire) for i in pending]
                computed = [
                    self._absorb_envelope(env)
                    for env in self._compute(
                        _traced_call, payloads, subkeys
                    )
                ]
            else:
                computed = self._compute(
                    fn, [tasks[i] for i in pending], subkeys
                )
            self.tasks_computed += len(computed)
            for slot, value in zip(pending, computed):
                results[slot] = value
                key = keys[slot] if keys is not None else None
                if key is not None:
                    if self.cache is not None:
                        self.cache.put(key, value)
                    for follower in followers.get(key, ()):
                        results[follower] = value
        return results

    # ------------------------------------------------------- crash recovery

    @property
    def quarantined(self) -> Dict[str, int]:
        """Quarantined task digests -> worker crashes attributed."""
        return dict(self._quarantined)

    def _compute(
        self,
        fn: Callable[[Any], Any],
        tasks: List[Any],
        keys: List[Optional[str]],
    ) -> List[Any]:
        """:meth:`_execute` with worker-crash recovery and poison-task
        quarantine.  Quarantined keys fail fast, before any dispatch."""
        blocked = sorted(
            {k for k in keys if k is not None and k in self._quarantined}
        )
        if blocked:
            raise WorkerCrashError(
                f"{len(blocked)} task(s) are quarantined after repeated "
                "worker crashes on their digests",
                quarantined=blocked,
            )
        try:
            return self._execute(fn, tasks)
        except WorkerCrashError as exc:
            return self._recover_from_crash(fn, tasks, keys, exc)

    def _recover_from_crash(
        self,
        fn: Callable[[Any], Any],
        tasks: List[Any],
        keys: List[Optional[str]],
        exc: WorkerCrashError,
    ) -> List[Any]:
        """Re-execute only the crash-affected work.

        Completed chunk results from *exc* are kept; each suspect task
        is retried in its own fresh single-task process pool (exact
        crash attribution, ``crash_retries`` rounds), crashes are
        charged to the task's digest, and digests reaching
        ``quarantine_after`` charges are quarantined.  Suspects that
        outlive the retry rounds without quarantine evidence run
        serially in-process -- the environmental-failure fallback.
        """
        from repro.obs.ledger import get_ledger

        self.worker_crashes += 1
        get_ledger().event(
            "worker.crash",
            suspects=len(exc.suspect_indices),
            completed=len(exc.completed),
        )
        results: Dict[int, Any] = {rel: value for rel, value in exc.completed}
        quarantined: List[str] = []
        retry: List[int] = []
        for rel in exc.suspect_indices:
            if not self._charge_crash(keys[rel], quarantined):
                retry.append(rel)

        rounds = 0
        while retry and rounds < self.crash_retries:
            rounds += 1
            settled, crashed = self._isolated_retry(fn, tasks, retry)
            for rel, value in settled.items():
                results[rel] = value
                if keys[rel] is not None:
                    # A success clears the digest's crash tab: the
                    # earlier charges were collateral, not poison.
                    self._crash_counts.pop(keys[rel], None)
            retry = []
            for rel in crashed:
                self.worker_crashes += 1
                if not self._charge_crash(keys[rel], quarantined):
                    retry.append(rel)
        for rel in retry:
            # Environmental fallback: fewer than quarantine_after
            # crashes on these digests, so run them in-process rather
            # than lose the campaign to a flaky pool.
            results[rel] = fn(tasks[rel])
        if quarantined:
            raise WorkerCrashError(
                f"{len(quarantined)} task(s) quarantined after "
                f"{self.quarantine_after}+ worker crashes",
                completed=sorted(results.items()),
                quarantined=sorted(set(quarantined)),
            ) from exc
        return [results[i] for i in range(len(tasks))]

    def _charge_crash(
        self, key: Optional[str], quarantined: List[str]
    ) -> bool:
        """Charge one worker crash to *key*; True when the charge tips
        the digest into quarantine (keyless tasks are never
        quarantined -- there is no digest to remember)."""
        if key is None:
            return False
        count = self._crash_counts.get(key, 0) + 1
        self._crash_counts[key] = count
        if count < self.quarantine_after:
            return False
        if key not in self._quarantined:
            from repro.obs.ledger import get_ledger

            self._quarantined[key] = count
            self.tasks_quarantined += 1
            get_ledger().event(
                "task.quarantined", digest=key, crashes=count
            )
        else:
            self._quarantined[key] = count
        quarantined.append(key)
        return True

    def _isolated_retry(
        self,
        fn: Callable[[Any], Any],
        tasks: List[Any],
        rels: List[int],
    ) -> Tuple[Dict[int, Any], List[int]]:
        """One retry round: each suspect in its own fresh process pool,
        so a crash is attributable to exactly one task."""
        settled: Dict[int, Any] = {}
        crashed: List[int] = []
        for rel in rels:
            pool = _process_pool(1)
            try:
                future = pool.submit(_run_chunk, fn, [tasks[rel]])
                settled[rel] = future.result(timeout=self.timeout_s)[0]
            except BrokenProcessPool:
                crashed.append(rel)
            except _futures.TimeoutError:
                _terminate(pool)
                raise SimulationTimeout(
                    f"crash-retry of task exceeded its "
                    f"{self.timeout_s:g} s budget",
                ) from None
            finally:
                pool.shutdown(wait=True)
        return settled, crashed

    # ------------------------------------------------------------ internals

    def _trace_wire(self) -> Optional[dict]:
        """The active trace context as an envelope header, or ``None``
        when tracing is off / no context is active (the common case --
        one boolean attribute check)."""
        from repro.obs.ledger import get_ledger
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return None
        ctx = tracer.current()
        if ctx is None:
            return None
        wire = ctx.to_wire()
        wire["ledger"] = get_ledger().enabled
        return wire

    def _absorb_envelope(self, envelope: dict) -> Any:
        """Merge one :func:`_traced_call` envelope into the local
        tracer/ledger and return the payload value."""
        from repro.obs.ledger import get_ledger
        from repro.obs.trace import get_tracer

        get_tracer().merge_records(envelope["spans"])
        events = envelope.get("events")
        if events:
            get_ledger().extend(events)
        return envelope["value"]

    def _execute(self, fn: Callable[[Any], Any], tasks: List[Any]) -> List[Any]:
        if self.mode == "serial" or self.max_workers == 1 or len(tasks) == 1:
            return [fn(task) for task in tasks]
        if self.mode == "process":
            try:
                return self._execute_pool("process", fn, tasks)
            except (pickle.PicklingError, TypeError, AttributeError,
                    ImportError):
                # Unpicklable cell function/payload: degrade to threads,
                # which share the interpreter and need no serialization.
                return self._execute_pool("thread", fn, tasks)
        return self._execute_pool("thread", fn, tasks)

    def _executor(self, kind: str) -> _futures.Executor:
        """The live *kind* pool, created on first use.  A process pool
        forked before the latest workload registration is replaced:
        its workers resolve workloads from the registry they were
        forked with."""
        stale = None
        with self._lock:
            pool = self._executors.get(kind)
            if kind == "process" and pool is not None \
                    and self._forked_at != registry_generation():
                stale, pool = pool, None
            if pool is None:
                if kind == "process":
                    pool = _process_pool(self.max_workers)
                    self._forked_at = registry_generation()
                else:
                    pool = _futures.ThreadPoolExecutor(self.max_workers)
                self._executors[kind] = pool
        if stale is not None:
            stale.shutdown(wait=True)
        return pool

    def _retire(self, kind: str, pool: _futures.Executor) -> None:
        """Forget *pool* if it is still the live *kind* pool, and stop
        it; the next map starts a fresh one."""
        with self._lock:
            if self._executors.get(kind) is pool:
                del self._executors[kind]
        _terminate(pool)

    def _submit(
        self, kind: str, fn: Callable[[Any], Any], chunks: List[List[Any]]
    ) -> Tuple[_futures.Executor, List["_futures.Future"]]:
        pool = self._executor(kind)
        try:
            return pool, [pool.submit(_run_chunk, fn, c) for c in chunks]
        except RuntimeError:
            # The pool broke or was shut down since it was handed out
            # (a worker killed while idle, a timeout in another
            # thread): no result of this map depends on it, so start
            # over on a fresh pool.
            self._retire(kind, pool)
            pool = self._executor(kind)
            return pool, [pool.submit(_run_chunk, fn, c) for c in chunks]

    def _execute_pool(
        self,
        kind: str,
        fn: Callable[[Any], Any],
        tasks: List[Any],
    ) -> List[Any]:
        chunks = [
            tasks[i: i + self.chunksize]
            for i in range(0, len(tasks), self.chunksize)
        ]
        start = time.monotonic()
        pool, futures = self._submit(kind, fn, chunks)
        gathered: List[List[Any]] = []
        try:
            for chunk, future in zip(chunks, futures):
                budget = (
                    None
                    if self.timeout_s is None
                    else self.timeout_s * len(chunk)
                )
                gathered.append(future.result(timeout=budget))
        except _futures.TimeoutError:
            self._retire(kind, pool)
            elapsed = time.monotonic() - start
            raise SimulationTimeout(
                f"evaluation cell exceeded its {self.timeout_s:g} s "
                f"budget ({self.mode} pool, {self.max_workers} workers)",
                elapsed_s=elapsed,
            ) from None
        except BrokenProcessPool as exc:
            error = _crash_error(chunks, futures)
            self._retire(kind, pool)
            raise error from exc
        except BaseException:
            # A task failed (or did not pickle): the pool stays, but
            # none of this map's work may outlive the map.
            for future in futures:
                future.cancel()
            _futures.wait(futures)
            raise
        return [value for chunk in gathered for value in chunk]

    # ------------------------------------------------------------ accounting

    def stats(self) -> dict:
        """Engine counters, merged with the attached cache's stats."""
        info = {
            "mode": self.mode,
            "max_workers": self.max_workers,
            "chunksize": self.chunksize,
            "tasks_seen": self.tasks_seen,
            "tasks_cached": self.tasks_cached,
            "tasks_computed": self.tasks_computed,
            "worker_crashes": self.worker_crashes,
            "tasks_quarantined": self.tasks_quarantined,
            "shm_tasks": self.shm_tasks,
        }
        if self.cache is not None:
            info["cache"] = self.cache.stats()
        return info

    def gauges(self) -> Dict[str, float]:
        """Flat numeric counters for flight-recorder sampling (cheap:
        plain attribute reads, no pool traffic)."""
        return {
            "tasks_seen": float(self.tasks_seen),
            "tasks_computed": float(self.tasks_computed),
            "worker_crashes": float(self.worker_crashes),
            "tasks_quarantined": float(self.tasks_quarantined),
        }


EvaluatorLike = Union[None, bool, int, ParallelEvaluator]
CacheLike = Union[None, str, "os.PathLike[str]", ResultCache]


def make_evaluator(
    parallel: EvaluatorLike = None,
    cache: CacheLike = None,
    **defaults: Any,
) -> Optional[ParallelEvaluator]:
    """Coerce the user-facing ``parallel=`` / ``cache=`` kwargs.

    ``parallel`` accepts ``None``/``False`` (no engine -- unless a cache
    is requested, in which case a serial cache-aware engine is built),
    ``True`` (process pool at CPU count), a worker count, or a
    ready-made :class:`ParallelEvaluator`.  ``cache`` accepts a
    :class:`ResultCache` or a path for a persistent one.
    """
    result_cache = coerce_cache(cache)
    if isinstance(parallel, ParallelEvaluator):
        if result_cache is not None and parallel.cache is None:
            parallel.cache = result_cache
        return parallel
    if parallel is None or parallel is False or parallel == 0:
        if result_cache is None:
            return None
        return ParallelEvaluator(
            max_workers=1, mode="serial", cache=result_cache, **defaults
        )
    workers = None if parallel is True else int(parallel)
    mode = "serial" if workers == 1 else defaults.pop("mode", "process")
    return ParallelEvaluator(
        max_workers=workers, mode=mode, cache=result_cache, **defaults
    )


def coerce_cache(cache: CacheLike) -> Optional[ResultCache]:
    """``cache=`` kwarg -> :class:`ResultCache` (path means persistent)."""
    if cache is None:
        return None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(path=cache)
