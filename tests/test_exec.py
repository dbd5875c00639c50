"""Unit tests for the parallel evaluation engine and result cache."""

import json
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.api import build_run_result, register_workload
from repro.core.errors import (
    SimulationTimeout,
    ValidationError,
    WorkerCrashError,
)
from repro.exec import (
    ParallelEvaluator,
    ResultCache,
    canonical_payload,
    coerce_cache,
    config_digest,
    make_evaluator,
)
from repro.hls.ir import OpKind


def _square(x):
    return x * x


def _slow_identity(x):
    time.sleep(1.0)
    return x


def _crash_once(task):
    """Crash the worker on first sight of the sentinel; succeed after.

    The sentinel file is the cross-process memory: the crashing attempt
    creates it with os._exit (no cleanup handlers -- a genuine process
    death), so every retry finds it and completes.  Models an
    *environmental* crash (OOM kill, node reaped), not a poison task.
    """
    import os

    sentinel, value = task
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os._exit(17)
    return value * 2


def _crash_if_flagged(task):
    """A poison task: crashes its worker iff the flag is set."""
    import os

    flagged, value = task
    if flagged:
        os._exit(23)
    return value + 1


def _crash_off_main(task):
    """Crashes in any worker process, succeeds in the coordinator --
    the shape only the in-process serial fallback can complete."""
    import os

    main_pid, value = task
    if os.getpid() != main_pid:
        os._exit(11)
    return value * 3


def _sum_payload(task):
    """Module-level map target: reduce the task's array (picklable)."""
    return float(task["payload"].sum())


def _worker_pid(_task):
    """The pid of the process that ran the task (a short nap lets every
    worker of a small pool pick up a task)."""
    time.sleep(0.02)
    return os.getpid()


def _sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _child_pids():
    import multiprocessing

    return {p.pid for p in multiprocessing.active_children()}


class _LateWorkload:
    """Registered only after a pool's workers were forked."""

    name = "test-exec-late"

    def space(self):
        return {"x": (1, 2, 3)}

    def evaluate(self, config, *, seed=0, impl=None):
        return build_run_result(
            self.name, {"y": 2.0 * config["x"] + seed},
            config=dict(config), seed=seed, impl=impl,
        )


@dataclass(frozen=True)
class _SpecA:
    alpha: int = 1
    beta: float = 2.0


@dataclass(frozen=True)
class _SpecB:
    alpha: int = 1
    beta: float = 2.0


class TestConfigDigest:
    def test_dict_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )

    def test_tuple_and_list_spellings_collide(self):
        assert config_digest((1, 2, 3)) == config_digest([1, 2, 3])

    def test_numpy_scalars_match_python(self):
        assert config_digest({"n": np.int64(7)}) == config_digest({"n": 7})
        assert config_digest(np.float64(0.5)) == config_digest(0.5)
        assert config_digest(np.array([1, 2])) == config_digest([1, 2])

    def test_negative_zero_normalized(self):
        assert config_digest(-0.0) == config_digest(0.0)

    def test_value_changes_change_digest(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_dataclass_type_tagged(self):
        # Same field values, different config classes: distinct keys.
        assert config_digest(_SpecA()) != config_digest(_SpecB())
        assert config_digest(_SpecA()) == config_digest(_SpecA(1, 2.0))

    def test_enum_digestible(self):
        assert config_digest(OpKind.MUL) != config_digest(OpKind.ADD)
        assert config_digest(OpKind.MUL) == config_digest(OpKind.MUL)

    def test_cycle_rejected(self):
        loop = {}
        loop["self"] = loop
        with pytest.raises(ValidationError):
            config_digest(loop)

    def test_canonical_payload_is_json_ready(self):
        payload = canonical_payload({"spec": _SpecA(), "kind": OpKind.ADD})
        json.dumps(payload)  # must not raise


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_get_or_compute(self):
        cache = ResultCache()
        calls = []

        def compute():
            calls.append(1)
            return {"x": 1}

        assert cache.get_or_compute("k", compute) == {"x": 1}
        assert cache.get_or_compute("k", compute) == {"x": 1}
        assert len(calls) == 1

    def test_values_isolated_from_mutation(self):
        cache = ResultCache()
        value = {"xs": [1, 2]}
        cache.put("k", value)
        value["xs"].append(3)
        first = cache.get("k")
        first["xs"].append(4)
        assert cache.get("k") == {"xs": [1, 2]}

    def test_get_shares_no_nested_container(self):
        cache = ResultCache()
        cache.put("k", {"metrics": {"xs": [1, {"y": 2.5}]}, "n": None})
        stored = cache.peek("k")
        value = cache.get("k")
        assert value == stored
        assert value is not stored
        assert value["metrics"] is not stored["metrics"]
        assert value["metrics"]["xs"] is not stored["metrics"]["xs"]
        assert value["metrics"]["xs"][1] is not stored["metrics"]["xs"][1]

    def test_get_still_copies_non_json_values(self):
        cache = ResultCache()
        array = np.arange(4.0)
        cache.put("k", {"pair": (array, "tag")})
        value = cache.get("k")
        assert value["pair"][1] == "tag"
        np.testing.assert_array_equal(value["pair"][0], array)
        assert value["pair"][0] is not cache.peek("k")["pair"][0]
        value["pair"][0][0] = 99.0
        assert cache.get("k")["pair"][0][0] == 0.0

    def test_disk_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        with ResultCache(path=path) as cache:
            cache.put(config_digest({"cell": 1}), {"result": 42})
        reopened = ResultCache(path=path)
        assert reopened.get(config_digest({"cell": 1})) == {"result": 42}
        assert reopened.stats()["entries"] == 1

    def test_corruption_tolerated(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json !!", encoding="utf-8")
        cache = ResultCache(path=path)
        assert len(cache) == 0
        assert cache.stats()["recovered_from_corruption"]
        cache.put("k", {"v": 1})  # store must work again...
        cache.flush()
        assert ResultCache(path=path).get("k") == {"v": 1}  # ...atomically

    def test_non_object_store_tolerated(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        cache = ResultCache(path=path)
        assert len(cache) == 0
        assert cache.stats()["recovered_from_corruption"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            ResultCache(max_entries=0)

    def test_threads_share_one_disk_backed_cache(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        threads, rounds = 4, 150
        lookups = [0] * threads
        puts = [0] * threads
        live = [set() for _ in range(threads)]
        errors = []

        def worker(t):
            try:
                for i in range(rounds):
                    key = f"t{t}-k{i % 25}"
                    cache.put(key, {"t": t, "i": i})
                    puts[t] += 1
                    live[t].add(key)
                    assert cache.get(key) == {"t": t, "i": i}
                    cache.get(f"t{t}-absent")
                    lookups[t] += 2
                    if i % 3 == 0:
                        cache.delete(f"t{t}-k{(i + 7) % 25}")
                        live[t].discard(f"t{t}-k{(i + 7) % 25}")
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(t,))
                    for t in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == sum(lookups)
        assert stats["stores"] == sum(puts)
        cache.close()
        expected = set().union(*live)
        reloaded = ResultCache(path=path)
        assert len(reloaded) == len(expected)
        assert all(key in reloaded for key in expected)
        assert not list(tmp_path.glob("*.tmp"))


class TestParallelEvaluator:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_map_preserves_order(self, mode):
        engine = ParallelEvaluator(max_workers=4, mode=mode)
        assert engine.map(_square, range(10)) == [
            x * x for x in range(10)
        ]

    def test_chunksize_covers_all_tasks(self):
        engine = ParallelEvaluator(max_workers=2, mode="process",
                                   chunksize=3)
        assert engine.map(_square, range(8)) == [x * x for x in range(8)]

    def test_cache_hits_skip_computation(self):
        cache = ResultCache()
        engine = ParallelEvaluator(max_workers=1, mode="serial",
                                   cache=cache)
        keys = [config_digest(x) for x in range(4)]
        first = engine.map(_square, range(4), keys=keys)
        second = engine.map(_square, range(4), keys=keys)
        assert first == second == [0, 1, 4, 9]
        assert engine.tasks_computed == 4
        assert cache.stats()["hits"] == 4

    def test_duplicate_keys_computed_once(self):
        engine = ParallelEvaluator(max_workers=1, mode="serial")
        keys = [config_digest("same")] * 5
        assert engine.map(_square, [3] * 5, keys=keys) == [9] * 5
        assert engine.tasks_computed == 1

    def test_unpicklable_fn_falls_back_to_threads(self):
        engine = ParallelEvaluator(max_workers=2, mode="process")
        assert engine.map(lambda x: x + 1, range(4)) == [1, 2, 3, 4]

    def test_timeout_raises_simulation_timeout(self):
        engine = ParallelEvaluator(max_workers=2, mode="thread",
                                   timeout_s=0.05)
        with pytest.raises(SimulationTimeout):
            engine.map(_slow_identity, [1, 2])

    def test_keys_must_align(self):
        engine = ParallelEvaluator(max_workers=1, mode="serial")
        with pytest.raises(ValidationError):
            engine.map(_square, [1, 2], keys=["only-one"])

    def test_validation(self):
        with pytest.raises(ValidationError):
            ParallelEvaluator(mode="gpu")
        with pytest.raises(ValidationError):
            ParallelEvaluator(max_workers=0)
        with pytest.raises(ValidationError):
            ParallelEvaluator(chunksize=0)
        with pytest.raises(ValidationError):
            ParallelEvaluator(timeout_s=0)

    def test_stats_shape(self):
        cache = ResultCache()
        engine = ParallelEvaluator(max_workers=2, cache=cache)
        engine.map(_square, range(3),
                   keys=[config_digest(i) for i in range(3)])
        stats = engine.stats()
        assert stats["tasks_seen"] == 3
        assert stats["tasks_computed"] == 3
        assert stats["cache"]["stores"] == 3


    def test_large_array_tasks_match_serial(self):
        # Four tasks share one 2 MB float64 array; each reaches its
        # process worker by pickle and comes back bit-identical.
        payload = np.random.default_rng(7).standard_normal(1 << 18)
        tasks = [{"payload": payload, "cell": i} for i in range(4)]
        with ParallelEvaluator(max_workers=2, mode="process") as engine:
            got = engine.map(_sum_payload, tasks)
        assert got == [_sum_payload(task) for task in tasks]
        assert engine.shm_tasks == 0
        assert engine.stats()["shm_tasks"] == 0


class TestWorkerCrashRecovery:
    """A dead worker process must cost at most the affected tasks."""

    def test_environmental_crash_recovers_all_results(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        tasks = [(sentinel, i) for i in range(6)]
        engine = ParallelEvaluator(max_workers=2, mode="process")
        results = engine.map(
            _crash_once, tasks,
            keys=[config_digest(i) for i in range(6)],
        )
        assert results == [i * 2 for i in range(6)]
        assert engine.worker_crashes >= 1
        assert engine.stats()["tasks_quarantined"] == 0
        assert engine.quarantined == {}

    def test_poison_task_quarantined_with_typed_error(self):
        tasks = [(False, 1), (True, 0), (False, 2)]
        keys = [config_digest(t) for t in tasks]
        engine = ParallelEvaluator(
            max_workers=2, mode="process",
            crash_retries=2, quarantine_after=2,
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.map(_crash_if_flagged, tasks, keys=keys)
        assert excinfo.value.quarantined == (keys[1],)
        assert engine.stats()["tasks_quarantined"] == 1
        assert engine.worker_crashes >= 2
        # Innocent batch-mates were completed before the raise.
        completed = dict(excinfo.value.completed)
        assert completed.get(0) == 2 or completed.get(2) == 3

    def test_quarantined_digest_fails_fast_without_dispatch(self):
        tasks = [(True, 0), (True, 1)]
        keys = [config_digest(t) for t in tasks]
        engine = ParallelEvaluator(
            max_workers=2, mode="process",
            crash_retries=2, quarantine_after=2,
        )
        with pytest.raises(WorkerCrashError):
            engine.map(_crash_if_flagged, tasks, keys=keys)
        crashes_after_first = engine.worker_crashes
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.map(_crash_if_flagged, tasks, keys=keys)
        # The pre-dispatch quarantine check spent zero new crashes.
        assert engine.worker_crashes == crashes_after_first
        assert set(excinfo.value.quarantined) == set(keys)

    def test_healthy_tasks_unaffected_by_poison_batchmate(self):
        tasks = [(False, i) for i in range(4)] + [(True, 0)]
        keys = [config_digest(t) for t in tasks]
        engine = ParallelEvaluator(
            max_workers=2, mode="process",
            crash_retries=2, quarantine_after=2,
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.map(_crash_if_flagged, tasks, keys=keys)
        completed = dict(excinfo.value.completed)
        # Every healthy task has a result despite the pool breaking;
        # only the poison digest is quarantined.
        assert excinfo.value.quarantined == (keys[4],)
        for index in range(4):
            assert completed[index] == index + 1

    def test_keyless_crash_falls_back_to_serial(self):
        import os

        tasks = [(os.getpid(), 5), (os.getpid(), 6)]
        engine = ParallelEvaluator(
            max_workers=2, mode="process", crash_retries=1,
        )
        results = engine.map(_crash_off_main, tasks)
        assert results == [15, 18]
        assert engine.worker_crashes >= 1
        assert engine.stats()["tasks_quarantined"] == 0

    def test_crash_error_is_runtime_error(self):
        exc = WorkerCrashError("boom", completed=[(0, "v")],
                               suspect_indices=[1], quarantined=["k"])
        assert isinstance(exc, RuntimeError)
        assert exc.completed == ((0, "v"),)
        assert exc.suspect_indices == (1,)
        assert exc.quarantined == ("k",)

    def test_crash_params_validated(self):
        with pytest.raises(ValidationError):
            ParallelEvaluator(crash_retries=-1)
        with pytest.raises(ValidationError):
            ParallelEvaluator(quarantine_after=0)


class TestPersistentPool:
    """One pool per evaluator: forked on the first multi-task map,
    reused after, joined by close(), replaced when it cannot serve."""

    def test_worker_pids_repeat_across_maps(self):
        with ParallelEvaluator(max_workers=2, mode="process") as engine:
            pids = [set(engine.map(_worker_pid, range(4)))
                    for _ in range(3)]
        assert os.getpid() not in set.union(*pids)
        assert len(set.union(*pids)) <= 2

    def test_concurrent_maps_share_one_pool(self):
        import sys
        import threading

        engine = ParallelEvaluator(max_workers=3, mode="process")
        results, errors = [], []

        def client():
            try:
                for _ in range(3):
                    results.append(engine.map(_worker_pid, range(6)))
            except Exception as exc:  # re-checked below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 12
        # One pool for every thread: never more workers than it has.
        assert len({pid for pids in results for pid in pids}) <= 3

    def test_close_joins_workers_and_engine_stays_usable(self):
        engine = ParallelEvaluator(max_workers=2, mode="process")
        before = _child_pids()
        pids = set(engine.map(_worker_pid, range(4)))
        engine.close()
        engine.close()  # idempotent
        assert not any(_alive(pid) for pid in pids)
        assert _child_pids() <= before
        again = set(engine.map(_worker_pid, range(4)))
        assert not again & pids
        engine.close()

    def test_killed_idle_worker_gives_a_fresh_pool(self):
        with ParallelEvaluator(max_workers=2, mode="process") as engine:
            pids = set(engine.map(_worker_pid, range(4)))
            victim = next(iter(pids))
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while _alive(victim) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert engine.map(_square, range(6)) == [
                x * x for x in range(6)
            ]
            fresh = set(engine.map(_worker_pid, range(4)))
        assert not fresh & pids
        # Nothing of the map ran on the broken pool: no crash charged.
        assert engine.worker_crashes == 0

    def test_worker_starting_after_its_owner_died_exits(self):
        """A worker whose initializer runs only after the pool's owner
        died has already been re-parented; it must exit all the same,
        and a worker whose owner lives must keep running."""
        import multiprocessing

        from repro.exec.parallel import _exit_with_parent

        ctx = multiprocessing.get_context("fork")
        dead = ctx.Process(target=int)
        dead.start()
        dead.join(timeout=30)
        orphan = ctx.Process(target=_exit_with_parent, args=(dead.pid,))
        owned = ctx.Process(target=_exit_with_parent, args=(os.getpid(),))
        for process in (orphan, owned):
            process.start()
            process.join(timeout=30)
            assert not process.is_alive()
        assert orphan.exitcode == 1
        assert owned.exitcode == 0

    def test_pickled_evaluator_travels_without_its_pool(self):
        with ParallelEvaluator(max_workers=2, mode="process") as engine:
            engine.map(_square, range(4))
            clone = pickle.loads(pickle.dumps(engine))
            assert clone._executors == {}
            assert clone.max_workers == 2 and clone.mode == "process"
            assert clone.map(_square, range(4)) == [0, 1, 4, 9]
            clone.close()

    def test_timeout_terminates_the_runaway_workers(self):
        engine = ParallelEvaluator(max_workers=2, mode="process",
                                   timeout_s=0.2)
        before = _child_pids()
        pids = set(engine.map(_worker_pid, range(4)))
        start = time.monotonic()
        with pytest.raises(SimulationTimeout):
            engine.map(_sleep_for, [3.0, 3.0])
        assert time.monotonic() - start < 2.0
        assert not any(_alive(pid) for pid in pids)
        assert _child_pids() <= before
        # The next map runs on a fresh pool.
        assert engine.map(_square, range(4)) == [0, 1, 4, 9]
        assert not set(engine.map(_worker_pid, range(4))) & pids
        engine.close()

    def test_workload_registered_after_fork_is_served(self):
        from repro.serve import EvaluationService

        engine = ParallelEvaluator(max_workers=2, mode="process")
        before = _child_pids()
        engine.map(_worker_pid, range(4))  # fork the pool
        with EvaluationService(parallel=engine, batch_size=8,
                               start=False) as service:
            late = _LateWorkload()
            register_workload(late, replace=True)
            futures = [service.submit(late.name, {"x": x}, seed=1)
                       for x in (1, 2, 3)]
            service.start()  # one batch of three: a pool map
            served = [f.result(timeout=60) for f in futures]
        for x, result in zip((1, 2, 3), served):
            assert result.ok, result.error
            direct = late.evaluate({"x": x}, seed=1)
            assert result.canonical_json() == direct.canonical_json()
        assert engine.tasks_computed == 4 + 3
        # shutdown() joined the evaluator's pool.
        assert _child_pids() <= before

    def test_graph_runner_closes_only_its_own_engine(self):
        from repro.campaign import GraphRunner

        mine = ParallelEvaluator(max_workers=2, mode="process")
        pids = set(mine.map(_worker_pid, range(4)))
        with GraphRunner(parallel=mine):
            pass
        assert all(_alive(pid) for pid in pids)
        mine.close()
        with GraphRunner(parallel=2) as runner:
            built = set(runner.engine.map(_worker_pid, range(4)))
        assert not any(_alive(pid) for pid in built)


class TestMakeEvaluator:
    def test_none_without_cache_is_none(self):
        assert make_evaluator(None) is None
        assert make_evaluator(False) is None
        assert make_evaluator(0) is None

    def test_cache_only_builds_serial_engine(self):
        engine = make_evaluator(None, ResultCache())
        assert engine is not None
        assert engine.mode == "serial"

    def test_worker_count(self):
        engine = make_evaluator(3)
        assert engine.max_workers == 3
        assert engine.mode == "process"

    def test_single_worker_is_serial(self):
        assert make_evaluator(1).mode == "serial"

    def test_existing_engine_passthrough_gains_cache(self):
        engine = ParallelEvaluator(max_workers=2)
        cache = ResultCache()
        assert make_evaluator(engine, cache) is engine
        assert engine.cache is cache

    def test_coerce_cache(self, tmp_path):
        assert coerce_cache(None) is None
        cache = ResultCache()
        assert coerce_cache(cache) is cache
        built = coerce_cache(tmp_path / "c.json")
        assert isinstance(built, ResultCache)
        assert built.path == tmp_path / "c.json"


class TestResultCacheNdarrayMemo:
    """ndarray config digests depend on content, never on identity."""

    def test_equal_content_fresh_object_redigests_consistently(self):
        a = np.arange(64, dtype=np.float64)
        b = a.copy()  # a different object with the same content
        assert config_digest(a) == config_digest(b)

    def test_different_arrays_digest_differently(self):
        a = np.arange(64, dtype=np.float64)
        b = np.arange(1, 65, dtype=np.float64)
        assert config_digest(a) != config_digest(b)
