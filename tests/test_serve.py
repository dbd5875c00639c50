"""Tests for the micro-batched evaluation service.

The load-bearing guarantee is *serving never perturbs results*: a
request served through :class:`EvaluationService` must be byte-identical
(canonical form) to calling ``Workload.evaluate`` directly, whether it
was computed, deduplicated inside a batch, or answered from the result
cache.  The rest covers the service mechanics: priority lanes, bounded
queues with backpressure, admission control, drain/shutdown, retry
accounting and the metrics snapshot.
"""

import asyncio
import json
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError

import pytest

from repro.core.api import (
    RunResult,
    build_run_result,
    example_config,
    get_workload,
    register_workload,
    workload_names,
)
from repro.core.errors import TransientFault, ValidationError
from repro.exec import ResultCache
from repro.obs.stats import percentile
from repro.resilience import BackoffPolicy
from repro.serve import (
    AdmissionRejected,
    EvalRequest,
    EvaluationService,
    config_pool,
    generate_requests,
    load_requests,
    run_load,
    serve_requests,
    zipf_weights,
)

CHEAP_CONFIGS = {
    "imc-crossbar": {"rows": 32, "cols": 32, "num_inputs": 2},
    "sparta": {"num_nodes": 48},
    "hls": {"kernel": "dot", "size": 8},
}


def _service(**kwargs):
    kwargs.setdefault("batch_size", 8)
    kwargs.setdefault("batch_wait_s", 0.001)
    return EvaluationService(**kwargs)


class _FlakyWorkload:
    """Fails transiently N times per (config, seed) before succeeding."""

    name = "test-flaky"

    def __init__(self, failures: int = 0) -> None:
        self.failures = failures
        self.calls = {}

    def space(self):
        return {"x": (1, 2)}

    def evaluate(self, config, *, seed=0, impl=None):
        key = (tuple(sorted(config.items())), seed)
        self.calls[key] = self.calls.get(key, 0) + 1
        if self.calls[key] <= self.failures:
            raise TransientFault(f"transient #{self.calls[key]}")
        return build_run_result(
            self.name, {"x": config.get("x", 1), "seed_used": seed},
            config=dict(config), seed=seed, impl=impl,
        )


class _BrokenWorkload:
    name = "test-broken"

    def space(self):
        return {"x": (1,)}

    def evaluate(self, config, *, seed=0, impl=None):
        raise RuntimeError("this workload always explodes")


class _SleepyWorkload:
    name = "test-sleepy"

    def space(self):
        return {"x": (1,)}

    def evaluate(self, config, *, seed=0, impl=None):
        time.sleep(0.05)
        return build_run_result(
            self.name, {"x": 1}, config=dict(config), seed=seed, impl=impl
        )


register_workload(_FlakyWorkload(), replace=True)
register_workload(_BrokenWorkload(), replace=True)
register_workload(_SleepyWorkload(), replace=True)


class TestServedVsDirect:
    @pytest.mark.parametrize("name", sorted(CHEAP_CONFIGS))
    def test_served_result_is_byte_identical(self, name):
        workload = get_workload(name)
        config = {**example_config(workload), **CHEAP_CONFIGS[name]}
        direct = workload.evaluate(config, seed=11)
        with _service() as service:
            served = service.evaluate(name, config, seed=11)
        assert served.canonical_json() == direct.canonical_json()

    def test_every_registered_workload_served_equals_direct(self):
        subsystems = [
            n for n in workload_names() if not n.startswith("test-")
        ]
        directs = {}
        with _service(cache=ResultCache()) as service:
            futures = {}
            for name in subsystems:
                workload = get_workload(name)
                config = {
                    **example_config(workload),
                    **CHEAP_CONFIGS.get(name, {}),
                }
                directs[name] = workload.evaluate(config, seed=4)
                futures[name] = service.submit(name, config, seed=4)
            for name, future in futures.items():
                assert (
                    future.result().canonical_json()
                    == directs[name].canonical_json()
                ), f"served {name} differs from direct evaluation"

    def test_warm_cache_request_served_from_result_cache(self):
        cache = ResultCache()
        config = CHEAP_CONFIGS["imc-crossbar"]
        with _service(cache=cache) as service:
            cold = service.evaluate("imc-crossbar", config, seed=0)
            computed_after_cold = service.snapshot()["evaluations"]
            warm = service.evaluate("imc-crossbar", config, seed=0)
            evaluations = service.snapshot()["evaluations"]
        assert warm.canonical_json() == cold.canonical_json()
        assert evaluations["cache_hits"] == 1
        assert (
            evaluations["computed"] == computed_after_cold["computed"] == 1
        )

    def test_in_batch_duplicates_deduplicate(self):
        config = CHEAP_CONFIGS["imc-crossbar"]
        with _service(start=False) as service:
            futures = [
                service.submit("imc-crossbar", config, seed=0)
                for _ in range(5)
            ]
            service.start()
            results = [f.result() for f in futures]
            evaluations = service.snapshot()["evaluations"]
        assert evaluations["computed"] == 1
        assert evaluations["deduped"] == 4
        first = results[0].canonical_json()
        assert all(r.canonical_json() == first for r in results)


class TestAdmission:
    def test_unknown_workload_fails_fast(self):
        with _service() as service:
            with pytest.raises(ValidationError, match="unknown workload"):
                service.submit("no-such-workload")

    def test_queue_full_rejected_with_reason(self):
        with _service(max_queue=2, start=False) as service:
            service.submit("test-sleepy")
            service.submit("test-sleepy", seed=1)
            with pytest.raises(AdmissionRejected) as excinfo:
                service.submit("test-sleepy", seed=2)
            assert excinfo.value.reason == "queue full"
            snapshot = service.snapshot()
            assert snapshot["requests"]["rejected"] == 1
            assert snapshot["requests"]["rejected_reasons"] == {
                "queue full": 1
            }
            service.start()

    def test_backpressure_blocks_instead_of_rejecting(self):
        with _service(max_queue=1, batch_size=1) as service:
            futures = [
                service.submit("test-sleepy", seed=seed, block=True)
                for seed in range(3)
            ]
            assert all(f.result().ok for f in futures)
            assert service.snapshot()["requests"]["rejected"] == 0

    def test_submissions_rejected_after_shutdown(self):
        service = _service()
        service.shutdown()
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit("test-sleepy")
        assert excinfo.value.reason == "stopped"


class TestPriorityAndBatching:
    def test_priority_lanes_dispatch_before_later_arrivals(self):
        service = _service(start=False, batch_size=2)
        service.submit("test-sleepy", seed=0, priority="low")
        service.submit("test-sleepy", seed=1, priority="normal")
        service.submit("test-sleepy", seed=2, priority="high")
        batch = service._next_batch()
        lanes = [pending.request.priority for pending in batch]
        assert lanes == ["high", "normal"]
        service._run_batch(batch)  # resolve the popped futures
        service.start()
        service.shutdown()

    def test_integer_priorities_are_accepted(self):
        request = EvalRequest(workload="test-sleepy", priority=-5)
        assert request.priority_rank == -5

    def test_batch_size_bounds_occupancy(self):
        with _service(start=False, batch_size=3) as service:
            for seed in range(7):
                service.submit("test-sleepy", seed=seed)
            service.start()
            assert service.drain(timeout=30.0)
            batches = service.snapshot()["batches"]
        assert batches["max_occupancy"] <= 3
        assert batches["count"] >= 3


class TestFailureHandling:
    def test_broken_workload_returns_error_result(self):
        with _service() as service:
            result = service.evaluate("test-broken")
        assert not result.ok
        assert result.status == "error"
        assert result.error_type == "RuntimeError"
        assert "explodes" in result.error

    def test_error_results_are_not_cached(self):
        cache = ResultCache()
        with _service(cache=cache) as service:
            first = service.evaluate("test-broken", seed=9)
            second = service.evaluate("test-broken", seed=9)
            evaluations = service.snapshot()["evaluations"]
        assert not first.ok and not second.ok
        assert evaluations["cache_hits"] == 0
        assert evaluations["computed"] == 2

    def test_transient_faults_retry_under_policy(self):
        flaky = _FlakyWorkload(failures=2)
        register_workload(flaky, replace=True)
        try:
            policy = BackoffPolicy(max_attempts=3, base_delay_s=0.0,
                                   jitter=0.0)
            with _service(policy=policy) as service:
                result = service.evaluate("test-flaky", {"x": 2}, seed=1)
                evaluations = service.snapshot()["evaluations"]
            assert result.ok
            assert result.attempts == 3
            assert evaluations["retries"] == 2
        finally:
            register_workload(_FlakyWorkload(), replace=True)

    def test_retries_exhausted_becomes_error_result(self):
        flaky = _FlakyWorkload(failures=5)
        register_workload(flaky, replace=True)
        try:
            policy = BackoffPolicy(max_attempts=2, base_delay_s=0.0,
                                   jitter=0.0)
            with _service(policy=policy) as service:
                result = service.evaluate("test-flaky", {"x": 1}, seed=0)
            assert not result.ok
            assert result.error_type == "TransientFault"
        finally:
            register_workload(_FlakyWorkload(), replace=True)

    def test_request_timeout_becomes_error_result(self):
        with _service() as service:
            result = service.evaluate(
                "test-sleepy", timeout_s=1e-6
            )
        assert not result.ok

    def test_coalesced_follower_not_served_leader_error(self):
        # Two identical requests land in one batch; dedup makes the
        # second a follower of the first.  The first attempt fails, so
        # the follower must get a fresh evaluation (which succeeds),
        # not a copy of the leader's error record.
        flaky = _FlakyWorkload(failures=1)
        register_workload(flaky, replace=True)
        try:
            cache = ResultCache()
            service = _service(start=False, cache=cache, batch_size=4)
            first = service.submit("test-flaky", {"x": 1}, seed=3)
            second = service.submit("test-flaky", {"x": 1}, seed=3)
            service.start()
            leader = first.result(timeout=30.0)
            follower = second.result(timeout=30.0)
            assert not leader.ok
            assert leader.error_type == "TransientFault"
            assert follower.ok
            # The follower's success repopulated the cache, so the next
            # identical request is a hit on a good result.
            before = service.snapshot()["evaluations"]["cache_hits"]
            third = service.evaluate("test-flaky", {"x": 1}, seed=3)
            after = service.snapshot()["evaluations"]["cache_hits"]
            service.shutdown()
            assert third.ok
            assert after == before + 1
        finally:
            register_workload(_FlakyWorkload(), replace=True)

    def test_follower_retry_counts_as_computed(self):
        flaky = _FlakyWorkload(failures=1)
        register_workload(flaky, replace=True)
        try:
            service = _service(start=False, batch_size=4)
            futures = [
                service.submit("test-flaky", {"x": 2}, seed=5)
                for _ in range(3)
            ]
            service.start()
            results = [f.result(timeout=30.0) for f in futures]
            evaluations = service.snapshot()["evaluations"]
            service.shutdown()
            assert not results[0].ok
            assert all(r.ok for r in results[1:])
            # Leader attempt plus one fresh attempt per follower (the
            # retry path deliberately skips dedup).
            assert evaluations["computed"] == 3
        finally:
            register_workload(_FlakyWorkload(), replace=True)


class TestLifecycle:
    def test_graceful_shutdown_completes_queued_requests(self):
        service = _service(start=False, batch_size=2)
        futures = [
            service.submit("test-sleepy", seed=seed) for seed in range(4)
        ]
        service.start()
        service.shutdown()  # drain=True
        assert all(f.result().ok for f in futures)

    def test_non_graceful_shutdown_cancels_queued_futures(self):
        service = _service(start=False)
        futures = [
            service.submit("test-sleepy", seed=seed) for seed in range(3)
        ]
        service.shutdown(drain=False)
        for future in futures:
            with pytest.raises(AdmissionRejected) as excinfo:
                future.result(timeout=5.0)
            assert excinfo.value.reason == "cancelled"

    def test_shutdown_is_idempotent(self):
        service = _service()
        service.shutdown()
        service.shutdown()

    def test_drain_returns_false_on_timeout(self):
        with _service(start=False) as service:
            service.submit("test-sleepy")
            assert service.drain(timeout=0.01) is False
            service.start()
            assert service.drain(timeout=30.0) is True

    def test_start_after_shutdown_rejected(self):
        service = _service()
        service.shutdown()
        with pytest.raises(ValidationError, match="shut down"):
            service.start()

    def test_alive_reflects_lifecycle(self):
        service = _service()
        assert service.alive
        service.shutdown()
        assert not service.alive

    def test_kill_strands_queued_work_and_rejects_new(self):
        # kill() models a crash: queued futures are abandoned (never
        # resolved -- recovery is the cluster's job), and the dead
        # service refuses new admissions.
        service = _service(start=False)
        future = service.submit("test-sleepy", seed=1)
        service.kill()
        assert not service.alive
        with pytest.raises(FuturesTimeoutError):
            future.result(timeout=0.05)
        with pytest.raises(AdmissionRejected):
            service.submit("test-sleepy", seed=2)


class TestAsyncAndOneShot:
    def test_submit_async_resolves_in_event_loop(self):
        async def roundtrip(service):
            request = EvalRequest(
                workload="hls", config=CHEAP_CONFIGS["hls"], seed=3
            )
            return await service.submit_async(request)

        with _service() as service:
            result = asyncio.run(roundtrip(service))
        direct = get_workload("hls").evaluate(CHEAP_CONFIGS["hls"], seed=3)
        assert result.canonical_json() == direct.canonical_json()

    def test_serve_requests_preserves_request_order(self):
        requests = [
            EvalRequest(workload="hls", config=CHEAP_CONFIGS["hls"],
                        seed=seed)
            for seed in (5, 1, 3)
        ]
        results, snapshot = serve_requests(requests, batch_size=2)
        assert [r.seed for r in results] == [5, 1, 3]
        assert snapshot["requests"]["completed"] == 3

    def test_serve_requests_mixed_workloads(self):
        requests = [
            EvalRequest(workload="hls", config=CHEAP_CONFIGS["hls"]),
            EvalRequest(workload="sparta", config=CHEAP_CONFIGS["sparta"],
                        priority="high"),
        ]
        results, _ = serve_requests(requests)
        assert [r.workload for r in results] == ["hls", "sparta"]
        assert all(r.ok for r in results)


class TestMetricsSnapshot:
    def test_snapshot_has_the_advertised_sections(self):
        with _service(cache=ResultCache()) as service:
            service.evaluate("hls", CHEAP_CONFIGS["hls"])
            snapshot = service.snapshot()
        for section in ("elapsed_s", "requests", "throughput_rps",
                        "latency_s", "queue_wait_s", "queue_depth",
                        "batches", "evaluations", "cache", "evaluator"):
            assert section in snapshot, f"snapshot misses {section!r}"
        for key in ("p50", "p95", "p99", "mean", "max", "count"):
            assert key in snapshot["latency_s"]
        assert snapshot["requests"]["in_flight"] == 0
        json.dumps(snapshot)  # JSON-exportable as-is

    def test_cache_hit_and_dedup_ratios(self):
        config = CHEAP_CONFIGS["hls"]
        with _service(cache=ResultCache()) as service:
            service.evaluate("hls", config)
            service.evaluate("hls", config)
            evaluations = service.snapshot()["evaluations"]
        assert evaluations["cache_hit_ratio"] == pytest.approx(0.5)
        assert evaluations["computed"] == 1

    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == pytest.approx(2.5)
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 101.0)


class TestRequestShape:
    def test_request_json_round_trip(self):
        request = EvalRequest(
            workload="hls", config={"size": 8}, seed=4, impl=None,
            priority="high", timeout_s=2.0,
        )
        assert EvalRequest.from_json(request.to_json()) == request

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown EvalRequest"):
            EvalRequest.from_json({"workload": "hls", "nope": 1})

    def test_invalid_priority_rejected(self):
        with pytest.raises(ValidationError, match="priority"):
            EvalRequest(workload="hls", priority="urgent")

    def test_load_requests_parses_json_array(self):
        text = json.dumps([
            {"workload": "hls", "config": {"size": 8}, "seed": 1},
            {"workload": "sparta", "priority": "low"},
        ])
        requests = load_requests(text)
        assert [r.workload for r in requests] == ["hls", "sparta"]
        assert requests[1].priority == "low"

    def test_load_requests_rejects_non_array(self):
        with pytest.raises(ValidationError, match="array"):
            load_requests(json.dumps({"workload": "hls"}))

    @pytest.mark.parametrize("seed", [True, "x", 1.5, None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            EvalRequest(workload="hls", seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            EvalRequest.from_json({"workload": "hls", "seed": seed})

    def test_numpy_integer_seed_accepted(self):
        import numpy as np

        request = EvalRequest(workload="hls", seed=np.int64(3))
        assert request.digest == EvalRequest(workload="hls", seed=3).digest

    def test_non_mapping_config_rejected(self):
        with pytest.raises(ValidationError, match="config"):
            EvalRequest(workload="hls", config=[1, 2])

    def test_non_string_impl_rejected(self):
        with pytest.raises(ValidationError, match="impl"):
            EvalRequest(workload="hls", impl=3)

    def test_load_requests_rejects_non_json(self):
        with pytest.raises(ValidationError, match="not JSON"):
            load_requests("[{'workload': 'hls'}]")

    def test_load_requests_rejects_non_object_entry(self):
        with pytest.raises(ValidationError, match="JSON object"):
            load_requests("[5]")

    def test_digest_matches_request_identity(self):
        a = EvalRequest(workload="hls", config={"size": 8}, seed=1)
        b = EvalRequest(workload="hls", config={"size": 8}, seed=1,
                        priority="high")
        c = EvalRequest(workload="hls", config={"size": 8}, seed=2)
        assert a.digest == b.digest  # priority is routing, not identity
        assert a.digest != c.digest


class TestLoadgen:
    def test_config_pool_members_are_valid_and_distinct(self):
        workload = get_workload("imc-crossbar")
        pool = config_pool(workload, 6)
        space = workload.space()
        assert len({json.dumps(c, sort_keys=True) for c in pool}) == 6
        for config in pool:
            for param, value in config.items():
                assert value in space[param]

    def test_zipf_weights_normalized_and_head_heavy(self):
        weights = zipf_weights(8, skew=1.5)
        assert weights.sum() == pytest.approx(1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(7))

    def test_generate_requests_is_deterministic(self):
        workload = get_workload("hls")
        first = generate_requests(workload, 16, seed=7)
        second = generate_requests(workload, 16, seed=7)
        assert first == second
        assert len({r.digest for r in first}) < 16  # duplicate-heavy

    def test_repeated_configs_share_seed_hence_digest(self):
        workload = get_workload("hls")
        requests = generate_requests(workload, 32, pool_size=4, seed=0)
        by_config = {}
        for request in requests:
            key = json.dumps(dict(request.config), sort_keys=True)
            by_config.setdefault(key, set()).add(request.digest)
        assert all(len(digests) == 1 for digests in by_config.values())

    def test_priority_mix_uses_requested_lanes(self):
        workload = get_workload("hls")
        requests = generate_requests(
            workload, 32, seed=1,
            priority_mix={"high": 0.5, "normal": 0.5},
        )
        lanes = {r.priority for r in requests}
        assert lanes <= {"high", "normal"}
        assert len(lanes) == 2

    def test_run_load_burst_reports_throughput_and_latency(self):
        workload = get_workload("hls")
        requests = generate_requests(workload, 8, seed=2)
        with _service() as service:
            point = run_load(service, requests)
        assert point["completed"] == 8
        assert point["achieved_rps"] > 0
        assert point["latency_s"]["count"] == 8
        first = point["results"][0]
        assert isinstance(first, RunResult) and first.ok

    def test_run_load_paced_mode_spaces_arrivals(self):
        workload = get_workload("hls")
        requests = generate_requests(workload, 4, seed=3)
        with _service() as service:
            point = run_load(service, requests, rate_rps=200.0)
        assert point["offered_rps"] == 200.0
        assert point["completed"] == 4
        assert point["elapsed_s"] >= 3 / 200.0

    def test_run_load_times_each_request_from_its_own_submit(self):
        # One slow request first, three fast ones after it: the fast
        # ones resolve long before the slow one and must report their
        # own latency, not the slow request's wait.
        class _TimedService:
            def submit_request(self, request, block=False):
                future = Future()
                result = build_run_result(
                    "test-timed", {}, config=dict(request.config),
                    seed=request.seed,
                )
                delay = 0.4 if request.seed == 0 else 0.01
                threading.Timer(delay, future.set_result, (result,)).start()
                return future

        requests = [
            EvalRequest(workload="test-timed", config={}, seed=seed)
            for seed in range(4)
        ]
        point = run_load(_TimedService(), requests)
        assert point["completed"] == 4
        assert point["latency_s"]["max"] >= 0.35
        assert point["latency_s"]["p50"] < 0.2


def _warm_cache(request):
    """A cache holding *request*'s good result, warmed through a
    service the way a real first request would."""
    cache = ResultCache()
    with _service(cache=cache) as service:
        assert service.submit_request(request).result(timeout=30.0).ok
    return cache


class TestAdmissionHits:
    """A request whose digest already holds a good result is answered
    at admission, in the submitting thread, without a batch."""

    REQUEST = EvalRequest(workload="hls", config=CHEAP_CONFIGS["hls"])

    def test_warm_hit_resolves_before_submit_returns(self):
        cache = _warm_cache(self.REQUEST)
        direct = get_workload("hls").evaluate(CHEAP_CONFIGS["hls"], seed=0)
        service = _service(cache=cache, start=False)
        try:
            batches = service.snapshot()["batches"]["count"]
            future = service.submit_request(self.REQUEST)
            assert future.done()
            assert future.result().canonical_json() == direct.canonical_json()
            snapshot = service.snapshot()
        finally:
            service.shutdown()
        assert snapshot["batches"]["count"] == batches
        assert snapshot["requests"]["submitted"] == 1
        assert snapshot["requests"]["completed"] == 1
        assert snapshot["evaluations"]["cache_hits"] == 1
        assert snapshot["queue_wait_s"]["max"] == 0.0

    def test_hit_needs_no_queue_slot(self):
        cache = _warm_cache(self.REQUEST)
        service = _service(cache=cache, max_queue=1, start=False)
        try:
            service.submit("hls", {"kernel": "dot", "size": 4})  # a miss
            assert service.queue_depth == 1
            assert service.submit_request(self.REQUEST).done()
            with pytest.raises(AdmissionRejected):
                service.submit("hls", {"kernel": "dot", "size": 2})
        finally:
            service.shutdown(drain=False)

    def test_stopped_service_rejects_a_hit(self):
        cache = _warm_cache(self.REQUEST)
        service = _service(cache=cache)
        service.shutdown()
        hits = cache.stats()["hits"]
        with pytest.raises(AdmissionRejected) as info:
            service.submit_request(self.REQUEST)
        assert info.value.reason == "stopped"
        assert cache.stats()["hits"] == hits

    def test_draining_service_rejects_a_hit(self):
        cache = _warm_cache(self.REQUEST)
        service = _service(cache=cache, start=False)
        service.submit("hls", {"kernel": "dot", "size": 4})  # never runs
        closer = threading.Thread(
            target=service.shutdown, kwargs={"timeout": 0.5}
        )
        closer.start()
        try:
            deadline = time.monotonic() + 5.0
            while not service._draining and time.monotonic() < deadline:
                time.sleep(0.001)
            with pytest.raises(AdmissionRejected) as info:
                service.submit_request(self.REQUEST)
            assert info.value.reason == "draining"
        finally:
            closer.join(timeout=30)
        assert not closer.is_alive()

    def test_error_record_is_never_served_at_admission(self):
        cache = ResultCache()
        cache.put(
            self.REQUEST.digest,
            build_run_result(
                "hls", {}, config=CHEAP_CONFIGS["hls"], seed=0,
                status="error", error="stale failure",
                error_type="RuntimeError",
            ).to_json(),
        )
        with _service(cache=cache) as service:
            result = service.submit_request(self.REQUEST).result(timeout=30)
            evaluations = service.snapshot()["evaluations"]
        assert result.ok
        assert evaluations["computed"] == 1
        assert evaluations["cache_hits"] == 0

    def test_admission_hit_tells_the_batch_hit_story(self):
        from repro import obs
        from repro.obs.ledger import get_ledger
        from repro.obs.metrics import get_metrics
        from repro.obs.trace import get_tracer

        def story(trace_id):
            spans = get_tracer().spans(trace_id)
            names = {span["span_id"]: span["name"] for span in spans}
            tree = sorted(
                (span["name"], names.get(span["parent_id"], ""))
                for span in spans
            )
            kinds = [
                (e["event"], e.get("source_trace"))
                for e in get_ledger().events(trace_id)
            ]
            return tree, kinds

        obs.disable()
        for pillar in (get_tracer(), get_ledger(), get_metrics()):
            pillar.reset()
        obs.enable()
        try:
            service = _service(
                cache=ResultCache(), batch_size=1, start=False
            )
            service.submit_request(self.REQUEST)  # leader: computed
            twin = service.submit_request(self.REQUEST)  # batch-path hit
            service.start()
            batch_hit = twin.result(timeout=30.0)
            before = service.snapshot()["batches"]["count"]
            admission_hit = service.submit_request(self.REQUEST).result()
            assert service.snapshot()["batches"]["count"] == before
            service.shutdown()
            batch_story = story(batch_hit.trace_id)
            admission_story = story(admission_hit.trace_id)
        finally:
            obs.disable()
            for pillar in (get_tracer(), get_ledger(), get_metrics()):
                pillar.reset()
        assert batch_hit.trace_id != admission_hit.trace_id
        assert admission_story == batch_story
        assert batch_story[0] == [
            ("batch", "request"), ("queue.wait", "request"),
            ("request", ""),
        ]
        assert [kind for kind, _ in batch_story[1]] == [
            "request.admitted", "cache.hit", "request.done"
        ]
        assert batch_story[1][1][1] is not None  # the leader's trace

    def test_hit_accounting_matches_the_batch_path(self):
        stream = [
            EvalRequest(workload="hls", config={"kernel": "dot", "size": n},
                        seed=seed)
            for n, seed in [(8, 0), (4, 0), (8, 0), (8, 1), (4, 0),
                            (8, 0), (8, 1), (4, 0)]
        ]

        def serve(force_batch):
            cache = ResultCache()
            service = _service(cache=cache)
            if force_batch:
                service._cached_ok = lambda key: None
            try:
                results = [
                    service.submit_request(r).result(timeout=30.0)
                    for r in stream
                ]
                evaluations = service.snapshot()["evaluations"]
            finally:
                service.shutdown()
            stats = cache.stats()
            return (
                [r.canonical_json() for r in results],
                (stats["hits"], stats["misses"]),
                (evaluations["cache_hits"], evaluations["computed"]),
            )

        assert serve(force_batch=False) == serve(force_batch=True)

    def test_digest_computed_once_per_warm_request(self, monkeypatch):
        import repro.serve.request as request_module

        cache = _warm_cache(self.REQUEST)
        calls = []
        original = request_module.request_digest

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(request_module, "request_digest", counting)
        with _service(cache=cache) as service:
            assert service.submit_request(self.REQUEST).done()
        assert len(calls) == 1
