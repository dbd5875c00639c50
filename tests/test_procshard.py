"""Tests for the process-backed shard cluster.

The promotion from threads to processes must not weaken any serving
guarantee: results stay byte-identical to direct evaluation, delivery
stays exactly-once even when a worker process is ``kill -9``'d with
requests in flight (supervisor restart + ledger replay across the
process boundary), and the consistent-hash router keeps its stability
contract when shards leave and rejoin.

Process tests are deliberately small -- each spawned worker pays an
interpreter start-up -- but they cover the real OS failure mode the
in-process chaos tests cannot: SIGKILL, no cleanup, no goodbye.
"""

import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import resource_tracker

import pytest

import numpy as np

from repro.core.api import get_workload
from repro.core.errors import ValidationError
from repro.obs.ledger import get_ledger
from repro.serve import ShardCluster, ShardRouter, generate_requests
from repro.serve.procshard import ProcessShard, validate_process_spec
from repro.serve.request import AdmissionRejected, EvalRequest

WORKLOAD = "imc-crossbar"


def _requests(count, seed=3):
    workload = get_workload(WORKLOAD)
    return generate_requests(
        workload, count, pool_size=max(4, count // 2), seed=seed
    )


def _canonical(requests):
    workload = get_workload(WORKLOAD)
    canonical = {}
    for request in requests:
        if request.digest not in canonical:
            result = workload.evaluate(request.config, seed=request.seed)
            canonical[request.digest] = result.canonical_json()
    return canonical


def _process_cluster(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("backend", "process")
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("heartbeat_s", 0.05)
    kwargs.setdefault("shard_heartbeat_s", 0.02)
    kwargs.setdefault("max_queue", 64)
    return ShardCluster(**kwargs)


class TestProcessSpecValidation:
    def test_accepts_plain_spec(self):
        spec = validate_process_spec(
            {"batch_size": 4, "parallel": 2, "cache": "/tmp/c.json"}
        )
        assert spec["batch_size"] == 4

    def test_rejects_unpicklable_parallel(self):
        with pytest.raises(ValidationError):
            validate_process_spec({"parallel": object()})

    def test_rejects_non_path_cache(self):
        with pytest.raises(ValidationError):
            validate_process_spec({"cache": {"not": "a path"}})

    def test_rejects_bad_backend(self):
        with pytest.raises(ValidationError):
            ShardCluster(num_shards=2, backend="carrier-pigeon")


class TestProcessCluster:
    def test_results_identical_and_exactly_once(self):
        requests = _requests(10)
        canonical = _canonical(requests)
        cluster = _process_cluster()
        try:
            assert cluster.wait_ready(timeout=90)
            futures = [
                cluster.submit_request(r, block=True) for r in requests
            ]
            results = [f.result(timeout=120) for f in futures]
        finally:
            cluster.shutdown()
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.status == "ok"
            assert result.canonical_json() == canonical[request.digest]
        snapshot = cluster.snapshot()
        assert snapshot["shards"] == 2
        assert snapshot["restarts"] == 0
        assert (
            snapshot["requests"]["completed"] == len(requests)
        )

    def test_sigkill_mid_batch_replays_exactly_once(self):
        """The flagship failure: ``kill -9`` one worker process while
        its queue holds work.  The supervisor must detect the death by
        heartbeat, restart the shard (new process), replay the lost
        requests from the run ledger, and still deliver every future
        exactly once with byte-identical results."""
        ledger = get_ledger()
        ledger.enable()
        ledger.reset()
        requests = _requests(16, seed=5)
        canonical = _canonical(requests)
        cluster = _process_cluster(num_shards=2)
        try:
            assert cluster.wait_ready(timeout=90)
            futures = [
                cluster.submit_request(r, block=True) for r in requests
            ]
            victim = cluster._slots[0].service
            os.kill(victim.pid, signal.SIGKILL)
            # A few more submissions after the kill: routing must flow
            # around the corpse (or to its replacement).
            extra = _requests(4, seed=9)
            canonical.update(_canonical(extra))
            deadline = time.monotonic() + 60
            for request in extra:
                while True:
                    try:
                        futures.append(
                            cluster.submit_request(request, block=True)
                        )
                        break
                    except Exception:
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.05)
            results = [f.result(timeout=120) for f in futures]
        finally:
            cluster.shutdown()
            ledger.disable()
        all_requests = requests + extra
        assert len(results) == len(all_requests)
        for request, result in zip(all_requests, results):
            assert result is not None and result.status == "ok"
            assert result.canonical_json() == canonical[request.digest]
        assert cluster.restarts >= 1
        names = {record["event"] for record in ledger.events()}
        assert {"shard.down", "shard.restarted"} <= names
        # Exactly-once at the ledger level too: no cluster rid resolves
        # twice even though the replay re-evaluated stranded work.
        done_rids = [
            record["rid"]
            for record in ledger.events()
            if record["event"] == "cluster.done"
        ]
        assert len(done_rids) == len(set(done_rids))

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process tables in /proc"
    )
    def test_killed_shard_takes_its_pool_workers_down(self):
        """A SIGKILLed process shard must not leave the workers of its
        evaluator's process pool idling forever."""
        cluster = _process_cluster(
            num_shards=1, parallel=2, batch_size=8, batch_wait_s=0.2,
            supervise=False,
        )
        workers = set()
        try:
            assert cluster.wait_ready(timeout=90)
            shard = cluster._slots[0].service
            # Distinct requests in one batch: a multi-task map starts
            # the shard's pool.
            futures = [
                cluster.submit_request(r, block=True)
                for r in _requests(6, seed=11)
            ]
            for future in futures:
                assert future.result(timeout=120).ok
            workers = _children(shard.pid)
            assert len(workers) >= 2
            cluster.kill_shard(0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                _running(pid) for pid in workers
            ):
                time.sleep(0.05)
            survivors = {
                pid: (_stat(pid), _signal_masks(pid))
                for pid in workers if _running(pid)
            }
            assert not survivors, (
                "pool workers outlived their killed shard "
                f"(pid: ((state, ppid), signal masks)): {survivors}"
            )
        finally:
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            cluster.shutdown(drain=False)

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process tables in /proc"
    )
    def test_setup_loop_leaves_no_process_behind(self, tmp_path):
        """The cold-start bench's setup loop, five times: a 2-shard
        process cluster on a warmed disk cache, ready, one hit,
        shutdown.  No process it started outlives it (multiprocessing's
        resource tracker is shared by the whole test run, not started
        per cluster)."""
        cache = str(tmp_path / "cache.json")
        request = _requests(1)[0]
        before = set(multiprocessing.active_children())
        children = _children(os.getpid())

        def setup_once():
            cluster = _process_cluster(
                cache=cache, batch_size=8, max_queue=256
            )
            try:
                assert cluster.wait_ready(timeout=90)
                future = cluster.submit_request(request, block=True)
                assert future.result(timeout=120).ok
            finally:
                cluster.shutdown()

        setup_once()  # warms the disk cache
        for _ in range(5):
            setup_once()
        assert set(multiprocessing.active_children()) - before == set()
        tracker = resource_tracker._resource_tracker._pid
        assert _children(os.getpid()) - children - {tracker} == set()


def _stat(pid):
    """``(state, ppid)`` of *pid* from ``/proc``, or ``None`` if gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _signal_masks(pid):
    """``SigBlk`` and ``SigCgt`` of *pid* from ``/proc``: whether it
    blocks or handles the parent-death signal."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return {}
    fields = (line.split(":", 1) for line in lines if ":" in line)
    return {
        key: value.strip() for key, value in fields
        if key in ("SigBlk", "SigCgt")
    }


def _children(parent):
    return {
        int(name)
        for name in os.listdir("/proc")
        if name.isdigit() and (_stat(name) or ("", 0))[1] == parent
    }


def _running(pid):
    """Alive and not a zombie waiting for a reaper."""
    stat = _stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


class TestRouterRebalance:
    def test_remove_and_readd_restores_assignment(self):
        router = ShardRouter(num_shards=4)
        keys = [f"digest-{i:03d}" for i in range(200)]
        everyone = {0, 1, 2, 3}
        before = {k: router.route(k, alive=everyone) for k in keys}
        survivors = everyone - {2}
        during = {k: router.route(k, alive=survivors) for k in keys}
        # Only the dead shard's keys move; they land on live shards.
        for key in keys:
            if before[key] != 2:
                assert during[key] == before[key]
            else:
                assert during[key] in survivors
        # Re-adding the shard restores the original assignment exactly
        # (consistent hashing is memoryless: same ring, same answer).
        after = {k: router.route(k, alive=everyone) for k in keys}
        assert after == before

    def test_rebalance_spreads_moved_keys(self):
        router = ShardRouter(num_shards=4)
        keys = [f"digest-{i:03d}" for i in range(400)]
        everyone = {0, 1, 2, 3}
        before = {k: router.route(k, alive=everyone) for k in keys}
        moved_to = {
            router.route(k, alive=everyone - {1})
            for k in keys
            if before[k] == 1
        }
        # The victim's keys spread over multiple survivors, not one.
        assert len(moved_to) >= 2


class TestProcessShard:
    _SPEC = {"batch_size": 2, "batch_wait_s": 0.01, "max_queue": 8,
             "parallel": None, "cache": None, "policy": None,
             "default_timeout_s": None}

    def test_ndarray_config_served_over_pickle(self):
        """A config holding a 1 MB ndarray crosses the shard pipe in
        the one request form and evaluates exactly as a direct call."""
        payload = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
        config = {"num_nodes": 48, "num_lanes": 2, "payload": payload}
        expected = get_workload("sparta").evaluate(config, seed=3)
        shard = ProcessShard(0, self._SPEC)
        try:
            assert shard.wait_ready(90)
            future = shard.submit_request(
                EvalRequest(workload="sparta", config=config, seed=3),
                block=True,
            )
            result = future.result(timeout=120)
        finally:
            shard.shutdown()
        assert result.status == "ok"
        assert result.canonical_json() == expected.canonical_json()

    def test_eight_large_requests_in_flight_at_once(self):
        """Eight 1 MiB-ndarray requests submitted concurrently fill a
        ``max_queue=8`` shard: the request direction carries 8 MiB,
        far beyond the pipe's kernel buffer, so senders block while
        the child streams results back.  Every request completes,
        equal to a direct evaluation."""
        payload = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
        config = {"num_nodes": 48, "num_lanes": 2, "payload": payload}
        seeds = range(8)
        workload = get_workload("sparta")
        expected = {
            seed: workload.evaluate(config, seed=seed).canonical_json()
            for seed in seeds
        }
        shard = ProcessShard(0, self._SPEC)
        futures = {}
        errors = []

        def _submit(seed):
            try:
                futures[seed] = shard.submit_request(
                    EvalRequest(workload="sparta", config=config, seed=seed),
                    block=True,
                )
            except Exception as exc:  # surfaced by the asserts below
                errors.append(exc)

        try:
            assert shard.wait_ready(90)
            senders = [
                threading.Thread(target=_submit, args=(seed,), daemon=True)
                for seed in seeds
            ]
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(120)
            assert not any(sender.is_alive() for sender in senders)
            assert errors == []
            results = {
                seed: future.result(timeout=120)
                for seed, future in futures.items()
            }
        finally:
            shard.shutdown()
        assert sorted(results) == list(seeds)
        for seed, result in results.items():
            assert result.status == "ok"
            assert result.canonical_json() == expected[seed]

    def test_submit_after_external_sigkill_is_stopped(self):
        """After an external ``kill -9`` of the worker a submit fails
        fast with ``reason="stopped"`` -- the cluster's reroute
        signal -- whether the liveness check or the failed send on the
        dead pipe notices first; it never hangs in ``send``."""
        payload = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
        request = EvalRequest(
            workload="sparta",
            config={"num_nodes": 48, "payload": payload},
        )
        shard = ProcessShard(0, self._SPEC)
        outcome = {}

        def _submit():
            try:
                outcome["future"] = shard.submit_request(request, block=True)
            except AdmissionRejected as exc:
                outcome["rejected"] = exc

        try:
            assert shard.wait_ready(90)
            os.kill(shard.pid, signal.SIGKILL)
            caller = threading.Thread(target=_submit, daemon=True)
            caller.start()
            caller.join(5)
            assert not caller.is_alive(), "submit hung on a dead shard"
        finally:
            shard.shutdown(drain=False)
        assert "future" not in outcome
        assert outcome["rejected"].reason == "stopped"

    def test_snapshot_answers_while_requests_in_flight(self):
        """A metrics snapshot is a live answer from the worker even
        while it evaluates: it reports the submitted requests, which
        the parent's fallback (the last snapshot sent) cannot."""
        slow = {"payload_bytes": 128, "rs_n": 63, "rs_k": 47,
                "mean_coverage": 16.0, "substitution_rate": 0.03,
                "indel_rate": 0.01}
        shard = ProcessShard(0, self._SPEC)
        try:
            assert shard.wait_ready(90)
            futures = [
                shard.submit_request(
                    EvalRequest(
                        workload="dna-pipeline", config=slow, seed=seed
                    ),
                    block=True,
                )
                for seed in (1, 2)
            ]
            snapshot = shard.snapshot(timeout_s=30)
            in_flight = sum(not future.done() for future in futures)
            for future in futures:
                assert future.result(timeout=120).status == "ok"
        finally:
            shard.shutdown()
        assert in_flight >= 1
        assert snapshot["requests"]["submitted"] == 2

    def test_blocked_submit_released_when_worker_dies_on_its_own(self):
        """A caller blocked on a full shard queue must not wait forever
        when the worker process dies without ``kill()`` (OOM, an
        external ``kill -9``): it is released, rerouted by the cluster
        to the restarted shard, and both requests complete."""
        slow = EvalRequest(
            workload="dna-pipeline",
            config={"payload_bytes": 128, "rs_n": 63, "rs_k": 47,
                    "mean_coverage": 16.0, "substitution_rate": 0.03,
                    "indel_rate": 0.01},
        )
        quick = _requests(1)[0]
        cluster = _process_cluster(num_shards=1, max_queue=1)
        outcome = {}

        def _blocked_submit():
            try:
                future = cluster.submit_request(quick, block=True)
                outcome["result"] = future.result(timeout=120)
            except Exception as exc:  # surfaced by the asserts below
                outcome["error"] = exc

        caller = threading.Thread(target=_blocked_submit, daemon=True)
        try:
            assert cluster.wait_ready(timeout=90)
            first = cluster.submit_request(slow, block=True)
            victim = cluster._slots[0].service
            caller.start()
            time.sleep(0.3)
            assert caller.is_alive() and victim.in_flight == 1
            os.kill(victim.pid, signal.SIGKILL)
            caller.join(60)
            assert not caller.is_alive(), "blocked submit never released"
            assert first.result(timeout=120).status == "ok"
        finally:
            cluster.shutdown(drain=False)
        assert "error" not in outcome, outcome.get("error")
        assert outcome["result"].status == "ok"
        assert cluster.restarts == 1
