"""Tests for fault-tolerant sharded serving.

The load-bearing guarantee is **exactly-once under failure**: every
request admitted by a :class:`ShardCluster` resolves exactly once with
a result byte-identical (canonical form) to a direct evaluation, even
when the shard that owned it is killed mid-flight and its work is
recovered by supervisor restart + ledger replay.  Around that sit the
mechanics: consistent-hash routing (determinism, balance, stability),
the circuit-breaker state machine under an injectable clock, seeded
chaos schedules, and the pure ledger-replay function.
"""

import time
from concurrent.futures import Future

import pytest

from repro.core.api import build_run_result, get_workload, register_workload
from repro.core.errors import ValidationError
from repro.exec import ResultCache
from repro.obs.ledger import get_ledger
from repro.resilience import (
    ChaosEvent,
    ChaosPolicy,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.serve import (
    AdmissionRejected,
    EvalRequest,
    ShardCluster,
    ShardRouter,
    incomplete_from_ledger,
    run_chaos_campaign,
)

class _NapWorkload:
    """Sleeps long enough that a kill reliably strands queued work."""

    name = "test-cluster-nap"

    def space(self):
        return {"x": tuple(range(1, 9))}

    def evaluate(self, config, *, seed=0, impl=None):
        time.sleep(0.03)
        return build_run_result(
            self.name, {"x": config["x"], "seed_used": seed},
            config=dict(config), seed=seed, impl=impl,
        )


class _StuckService:
    """A shard stand-in that reports alive but never completes
    anything: its futures dangle forever."""

    def __init__(self):
        self.alive = True
        self.killed = False

    def submit_request(self, request, block=False):
        return Future()

    def kill(self):
        self.killed = True
        self.alive = False

    def shutdown(self, **kwargs):
        pass


@pytest.fixture(autouse=True)
def _register():
    register_workload(_NapWorkload(), replace=True)


def _nap_requests(count):
    return [
        EvalRequest(workload=_NapWorkload.name, config={"x": 1 + (i % 8)},
                    seed=i)
        for i in range(count)
    ]


def _cluster(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("batch_wait_s", 0.001)
    kwargs.setdefault("supervise", False)
    return ShardCluster(**kwargs)


class TestShardRouter:
    def test_deterministic_across_instances(self):
        digests = [f"digest-{i}" for i in range(64)]
        a = ShardRouter(4)
        b = ShardRouter(4)
        assert [a.route(d) for d in digests] == [b.route(d) for d in digests]

    def test_balance(self):
        router = ShardRouter(4, replicas=128)
        counts = {
            shard: len(keys)
            for shard, keys in router.assignments(
                [f"digest-{i}" for i in range(400)]
            ).items()
        }
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) >= 400 * 0.05

    def test_stability_only_dead_shards_keys_move(self):
        router = ShardRouter(4)
        digests = [f"digest-{i}" for i in range(200)]
        before = {d: router.route(d) for d in digests}
        after = {d: router.route(d, alive={0, 1, 3}) for d in digests}
        for digest in digests:
            if before[digest] != 2:
                assert after[digest] == before[digest]
            else:
                assert after[digest] != 2

    def test_no_alive_shard_routes_none(self):
        router = ShardRouter(3)
        assert router.route("digest", alive=set()) is None

    def test_single_shard(self):
        router = ShardRouter(1)
        assert router.route("anything") == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardRouter(0)
        with pytest.raises(ValidationError):
            ShardRouter(2, replicas=0)


class TestCircuitBreaker:
    def _breaker(self, clock, **kwargs):
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("recovery_time_s", 10.0)
        return CircuitBreaker("test-key", clock=clock, **kwargs)

    def test_opens_after_consecutive_failures(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.check()
        assert excinfo.value.key == "test-key"
        assert excinfo.value.retry_after_s == pytest.approx(10.0)

    def test_success_resets_consecutive_count(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_then_close_on_success(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(3):
            breaker.record_failure()
        now[0] = 10.0
        assert breaker.state == "half_open"
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0])
        for _ in range(3):
            breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 15.0
        assert breaker.state == "open"  # window restarted at reopen
        now[0] = 20.0
        assert breaker.state == "half_open"

    def test_half_open_bounds_trial_count(self):
        now = [0.0]
        breaker = self._breaker(lambda: now[0], half_open_max=2)
        for _ in range(3):
            breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()
        assert breaker.snapshot()["shed"] >= 1

    def test_transitions_land_in_ledger(self):
        ledger = get_ledger()
        ledger.reset()
        ledger.enable()
        try:
            now = [0.0]
            breaker = self._breaker(lambda: now[0])
            for _ in range(3):
                breaker.record_failure()
            events = [
                e for e in ledger.events() if e["event"] == "breaker.open"
            ]
        finally:
            ledger.disable()
            ledger.reset()
        assert len(events) == 1
        assert events[0]["key"] == "test-key"

    def test_validation(self):
        with pytest.raises(ValidationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValidationError):
            CircuitBreaker(recovery_time_s=-1)
        with pytest.raises(ValidationError):
            CircuitBreaker(half_open_max=0)


class TestChaosPolicy:
    def test_event_validation(self):
        with pytest.raises(ValidationError):
            ChaosEvent(-1, "kill")
        with pytest.raises(ValidationError):
            ChaosEvent(0, "explode")
        with pytest.raises(ValidationError):
            ChaosEvent(0, "delay")  # needs delay_s > 0
        with pytest.raises(ValidationError):
            ChaosEvent(0, "burst", copies=0)

    def test_actions_at_and_kill_count(self):
        policy = ChaosPolicy(events=(
            ChaosEvent(3, "kill", shard=1),
            ChaosEvent(3, "delay", delay_s=0.01),
            ChaosEvent(5, "burst", copies=4),
        ))
        assert [e.action for e in policy.actions_at(3)] == ["kill", "delay"]
        assert policy.actions_at(4) == []
        assert policy.kill_count == 1

    def test_random_is_seed_deterministic(self):
        a = ChaosPolicy.random(11, 40, 4)
        b = ChaosPolicy.random(11, 40, 4)
        c = ChaosPolicy.random(12, 40, 4)
        assert a.to_json() == b.to_json()
        assert a.to_json() != c.to_json()

    def test_random_respects_span_and_counts(self):
        policy = ChaosPolicy.random(
            5, 50, 4, kills=2, delays=3, bursts=1
        )
        actions = [e.action for e in policy.events]
        assert actions.count("kill") == 2
        assert actions.count("delay") == 3
        assert actions.count("burst") == 1
        for event in policy.events:
            assert 5 <= event.at_request < 45
            if event.action == "kill":
                assert 0 <= event.shard < 4

    def test_kill_shard_constructor(self):
        policy = ChaosPolicy.kill_shard(at_request=7, shard=2)
        assert policy.kill_count == 1
        assert policy.actions_at(7)[0].shard == 2


class TestIncompleteFromLedger:
    def _submit(self, rid, shard):
        return {"event": "cluster.submit", "rid": rid, "shard": shard}

    def _done(self, rid):
        return {"event": "cluster.done", "rid": rid}

    def test_open_stories_only(self):
        events = [
            self._submit(1, 0), self._submit(2, 0), self._submit(3, 1),
            self._done(1),
        ]
        assert incomplete_from_ledger(events) == [2, 3]
        assert incomplete_from_ledger(events, shard=0) == [2]
        assert incomplete_from_ledger(events, shard=1) == [3]

    def test_resubmission_moves_responsibility(self):
        events = [
            self._submit(1, 0),
            self._submit(1, 1),  # replayed onto shard 1
        ]
        assert incomplete_from_ledger(events, shard=0) == []
        assert incomplete_from_ledger(events, shard=1) == [1]

    def test_error_closes_story(self):
        events = [
            self._submit(1, 0),
            {"event": "cluster.error", "rid": 1},
        ]
        assert incomplete_from_ledger(events) == []

    def test_ignores_unrelated_events(self):
        events = [
            {"event": "request.admitted", "trace_id": "t"},
            self._submit(4, 2),
        ]
        assert incomplete_from_ledger(events) == [4]


class TestShardCluster:
    def test_results_identical_to_direct_evaluation(self):
        requests = _nap_requests(10)
        workload = get_workload(_NapWorkload.name)
        expected = [
            workload.evaluate(r.config, seed=r.seed).canonical_json()
            for r in requests
        ]
        with _cluster() as cluster:
            futures = [
                cluster.submit_request(r, block=True) for r in requests
            ]
            results = [f.result(timeout=30.0) for f in futures]
        assert [r.canonical_json() for r in results] == expected

    def test_same_digest_routes_to_same_shard(self):
        with _cluster(num_shards=3) as cluster:
            request = _nap_requests(1)[0]
            owner = cluster.router.route(request.digest)
            for _ in range(3):
                future = cluster.submit_request(request)
                future.result(timeout=30.0)
            snapshot = cluster.snapshot()
        submitted = [
            s["requests"]["submitted"] for s in snapshot["per_shard"]
        ]
        assert submitted[owner] == 3
        assert sum(submitted) == 3

    def test_kill_and_replay_exactly_once(self):
        requests = _nap_requests(12)
        workload = get_workload(_NapWorkload.name)
        expected = [
            workload.evaluate(r.config, seed=r.seed).canonical_json()
            for r in requests
        ]
        ledger = get_ledger()
        ledger.reset()
        ledger.enable()
        try:
            with _cluster() as cluster:
                futures = [
                    cluster.submit_request(r, block=True) for r in requests
                ]
                cluster.kill_shard(0)
                restarted = cluster.check_shards()
                results = [f.result(timeout=30.0) for f in futures]
                replayed = cluster.replayed
            events = ledger.events()
        finally:
            ledger.disable()
            ledger.reset()
        assert restarted == [0]
        assert replayed >= 1  # the nap keeps shard-0 work in flight
        # Exactly once, bytes identical, despite the crash.
        assert [r.canonical_json() for r in results] == expected
        # One cluster.done per request id: nothing delivered twice.
        done = [e["rid"] for e in events if e["event"] == "cluster.done"]
        assert len(done) == len(set(done)) == len(requests)
        names = {e["event"] for e in events}
        assert {"shard.killed", "shard.restarted", "cluster.replay"} <= names

    def test_supervisor_restarts_dead_shard(self):
        requests = _nap_requests(10)
        cluster = ShardCluster(
            num_shards=2, batch_size=4, batch_wait_s=0.001,
            supervise=True, heartbeat_s=0.01,
        )
        try:
            futures = [
                cluster.submit_request(r, block=True) for r in requests
            ]
            cluster.kill_shard(1)
            results = [f.result(timeout=30.0) for f in futures]
        finally:
            cluster.shutdown()
        assert all(r.ok for r in results)
        assert cluster.restarts == 1
        assert cluster._slots[1].incarnation == 1

    def test_deadline_detects_wedged_shard(self):
        cluster = _cluster(num_shards=1)
        stuck = _StuckService()
        try:
            cluster._slots[0].service = stuck
            future = cluster.submit_request(_nap_requests(1)[0])
            time.sleep(0.03)
            restarted = cluster.check_shards(stall_timeout_s=0.02)
            result = future.result(timeout=30.0)
        finally:
            cluster.shutdown()
        assert restarted == [0]
        assert stuck.killed
        assert result.ok

    def test_replay_set_is_the_ledger_audit(self):
        """A restart replays from the in-memory in-flight table; the run
        ledger must tell the same story: the ``cluster.replay`` rids are
        exactly what :func:`incomplete_from_ledger` reads off the events
        written before the restart, in the same order."""
        ledger = get_ledger()
        ledger.enable()
        ledger.reset()
        cluster = _cluster(num_shards=2)
        try:
            cluster._slots[0].service = _StuckService()
            requests = _nap_requests(12)
            owners = [
                cluster.router.route(request.digest) for request in requests
            ]
            assert owners.count(0) >= 2
            futures = [cluster.submit_request(r) for r in requests]
            cluster.kill_shard(0)
            assert cluster.check_shards() == [0]
            results = [f.result(timeout=30.0) for f in futures]
            events = ledger.events()
        finally:
            cluster.shutdown()
            ledger.disable()
        assert all(r.ok for r in results)
        cut = next(
            index for index, record in enumerate(events)
            if record["event"] == "shard.restarted"
        )
        replayed = [
            record["rid"] for record in events
            if record["event"] == "cluster.replay"
        ]
        assert len(replayed) == owners.count(0)
        assert replayed == incomplete_from_ledger(events[:cut], shard=0)

    def test_breaker_opens_and_sheds_through_cluster(self):
        class _Exploding:
            name = "test-cluster-exploding"

            def space(self):
                return {"x": (1,)}

            def evaluate(self, config, *, seed=0, impl=None):
                raise RuntimeError("always fails")

        register_workload(_Exploding(), replace=True)
        shed = 0
        with _cluster(breaker_threshold=2,
                      breaker_recovery_s=60.0) as cluster:
            for index in range(5):
                try:
                    future = cluster.submit(
                        _Exploding.name, {"x": 1}, seed=index, block=True
                    )
                except CircuitOpenError:
                    shed += 1
                    continue
                assert not future.result(timeout=30.0).ok
            snapshot = cluster.snapshot()
        breaker = snapshot["breakers"][_Exploding.name]
        assert breaker["state"] == "open"
        assert shed == 3

    def test_stopped_cluster_rejects(self):
        cluster = _cluster()
        cluster.shutdown()
        with pytest.raises(AdmissionRejected):
            cluster.submit_request(_nap_requests(1)[0])

    def test_duplicate_burst_resolves_every_copy(self):
        request = _nap_requests(1)[0]
        with _cluster() as cluster:
            futures = [
                cluster.submit_request(request, block=True)
                for _ in range(10)
            ]
            results = [f.result(timeout=30.0) for f in futures]
            snapshot = cluster.snapshot()
        canonical = {r.canonical_json() for r in results}
        assert len(results) == 10
        assert len(canonical) == 1
        # In-batch dedup absorbed most of the pressure.
        assert snapshot["evaluations"]["computed"] < 10

    def test_snapshot_shape(self):
        with _cluster() as cluster:
            cluster.submit_request(
                _nap_requests(1)[0], block=True
            ).result(timeout=30.0)
            snapshot = cluster.snapshot()
        assert snapshot["shards"] == 2
        assert snapshot["requests"]["submitted"] == 1
        assert snapshot["batches"]["count"] >= 1
        assert "computed" in snapshot["evaluations"]
        assert len(snapshot["per_shard"]) == 2


class TestRunChaosCampaign:
    def test_kill_campaign_exactly_once(self):
        requests = _nap_requests(10)
        workload = get_workload(_NapWorkload.name)
        expected = [
            workload.evaluate(r.config, seed=r.seed).canonical_json()
            for r in requests
        ]
        policy = ChaosPolicy.kill_shard(at_request=4, shard=0)
        results, report = run_chaos_campaign(
            requests, policy, num_shards=2, heartbeat_s=0.01,
        )
        assert report["lost"] == 0
        assert report["errors"] == 0
        assert report["restarts"] == 1
        assert [r.canonical_json() for r in results] == expected

    def test_burst_and_delay_campaign(self):
        requests = _nap_requests(8)
        policy = ChaosPolicy(events=(
            ChaosEvent(2, "delay", delay_s=0.01),
            ChaosEvent(4, "burst", copies=3),
        ))
        results, report = run_chaos_campaign(
            requests, policy, num_shards=2, heartbeat_s=0.01,
        )
        assert report["lost"] == 0
        assert report["extras"] == 3
        assert report["extra_lost"] == 0
        assert all(r.ok for r in results)
        assert report["latency_s"]["count"] == len(requests) + 3


class TestAdmissionHitsAcrossShards:
    """Shards submit through ``EvaluationService.submit_request``, so
    warm requests are answered at shard admission on both backends."""

    def test_inproc_warm_request_digested_once_per_layer(self, monkeypatch):
        import repro.serve.request as request_module

        request = _nap_requests(1)[0]
        calls = []
        original = request_module.request_digest

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        with _cluster(cache=ResultCache()) as cluster:
            cluster.submit_request(request).result(timeout=30.0)
            monkeypatch.setattr(request_module, "request_digest", counting)
            fresh = EvalRequest(
                workload=request.workload, config=dict(request.config),
                seed=request.seed,
            )
            warm = cluster.submit_request(fresh).result(timeout=30.0)
            snapshot = cluster.snapshot()
        assert warm.ok
        # Once, in the router's entry; shard admission reuses it.
        assert len(calls) == 1
        assert snapshot["evaluations"]["cache_hits"] == 1

    def test_process_cluster_warm_hits_match_direct(self, tmp_path):
        workload = get_workload("imc-crossbar")
        requests = [
            EvalRequest(workload="imc-crossbar",
                        config={"rows": 16, "cols": 16}, seed=seed)
            for seed in range(6)
        ]
        direct = [
            workload.evaluate(r.config, seed=r.seed).canonical_json()
            for r in requests
        ]
        cluster = ShardCluster(
            num_shards=2, backend="process", batch_size=4,
            cache=str(tmp_path / "cache.json"), supervise=False,
        )
        try:
            assert cluster.wait_ready(timeout=90)
            for request in requests:
                cluster.submit_request(request, block=True).result(120)
            cold = cluster.snapshot()
            warm = [
                cluster.submit_request(r, block=True).result(120)
                for r in requests
            ]
            hot = cluster.snapshot()
        finally:
            cluster.shutdown()
        assert [r.canonical_json() for r in warm] == direct
        assert (
            hot["evaluations"]["cache_hits"]
            - cold["evaluations"]["cache_hits"]
        ) == len(requests)
        assert hot["evaluations"]["computed"] == len(requests)
        assert hot["batches"]["count"] == cold["batches"]["count"]
