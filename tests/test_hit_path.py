"""Tests for the warm-hit path of the serving stack.

A request is digested once -- by whoever first asks, usually the
router -- and the digest travels with it, into a process shard too.
The request snapshots its config, so that kept digest cannot go stale
when the caller mutates its own mapping.  Routing and submitting read
shard liveness from flags, and each pipe end is watched by one
registered poller.  An admission hit serves the cached record without
copying it, while the ``RunResult`` built from it owns its metrics, so
a caller mutating a served result never reaches the store.
"""

import multiprocessing.connection
import threading
from multiprocessing import Pipe

import pytest

import repro.exec.cache as cache_module
import repro.serve.request as request_module
from repro.core.api import RunResult, build_run_result, register_workload
from repro.exec import ResultCache
from repro.serve import EvalRequest, EvaluationService, ShardCluster
from repro.serve.procshard import (
    _dumps,
    _shard_worker_main,
    validate_process_spec,
)

HLS_CONFIG = {"kernel": "dot", "size": 8}


def _hls():
    """A fresh request object (its digest not yet computed)."""
    return EvalRequest(workload="hls", config=dict(HLS_CONFIG))


class _EchoWorkload:
    """Reports the config it was evaluated with."""

    name = "test-hit-path-echo"

    def space(self):
        return {"k": (1, 2), "xs": ((1, 2),)}

    def evaluate(self, config, *, seed=0, impl=None):
        return build_run_result(
            self.name, {"k": config["k"], "total": sum(config["xs"])},
            config=dict(config), seed=seed, impl=impl,
        )


@pytest.fixture
def echo_workload():
    register_workload(_EchoWorkload(), replace=True)
    return _EchoWorkload.name


@pytest.fixture
def digest_calls(monkeypatch):
    """Every ``request_digest`` call made for an ``EvalRequest``."""
    calls = []
    original = request_module.request_digest

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(request_module, "request_digest", counting)
    return calls


class TestConfigSnapshot:
    def test_caller_mutation_reaches_neither_request_nor_memo(
        self, echo_workload
    ):
        config = {"k": 1, "xs": [1, 2]}
        request = EvalRequest(workload=echo_workload, config=config)
        config["k"] = 2
        config["xs"].append(3)
        digest = request.digest
        config["k"] = 5
        config["xs"].append(4)
        reference = EvalRequest(
            workload=echo_workload, config={"k": 1, "xs": [1, 2]}
        )
        assert request.digest == digest == reference.digest
        assert request.to_json() == reference.to_json()
        assert request == reference
        with EvaluationService(cache=ResultCache()) as service:
            result = service.submit_request(request).result(timeout=30)
        assert result.metrics == {"k": 1, "total": 3}
        assert result.config_digest == digest

    def test_memo_is_not_a_field(self):
        request = _hls()
        before = repr(request)
        assert request.digest
        assert repr(request) == before
        assert request == _hls()
        assert "digest" not in request.to_json()


class TestOneDigestPerRequest:
    def test_inproc_cluster_digests_a_fresh_request_once(
        self, digest_calls
    ):
        with ShardCluster(
            num_shards=2, batch_wait_s=0.001, supervise=False,
            cache=ResultCache(),
        ) as cluster:
            request = _hls()
            assert cluster.submit_request(request).result(timeout=30).ok
            assert len(digest_calls) == 1
            # Resubmitting the same object costs no digest at all.
            assert cluster.submit_request(request).result(timeout=30).ok
            assert len(digest_calls) == 1
            # A fresh equal object costs exactly one, at the router.
            assert cluster.submit_request(_hls()).result(timeout=30).ok
            assert len(digest_calls) == 2
            snapshot = cluster.snapshot()
        assert snapshot["evaluations"]["cache_hits"] == 2

    def test_shard_loop_serves_a_hit_without_hashing(
        self, tmp_path, monkeypatch
    ):
        """The real shard worker loop, on a thread over a pipe, serves
        a routed hit with ``request_digest`` broken: the digest on the
        submit message is the one it uses.  Its pipe end is watched
        without ``Connection.poll``'s per-call selector."""
        cache = str(tmp_path / "shard-cache.json")
        request = _hls()
        with EvaluationService(cache=cache) as service:
            expected = service.submit_request(request).result(timeout=60)
        spec = validate_process_spec({
            "batch_size": 8, "batch_wait_s": 0.005, "max_queue": 16,
            "cache": cache,
        })
        parent, child = Pipe()
        polls = []
        original_wait = multiprocessing.connection.wait

        def no_hashing(*args, **kwargs):
            raise AssertionError("the shard re-hashed a routed request")

        def counting_wait(object_list, timeout=None):
            if child in object_list:
                polls.append(timeout)
            return original_wait(object_list, timeout)

        monkeypatch.setattr(request_module, "request_digest", no_hashing)
        monkeypatch.setattr(multiprocessing.connection, "wait", counting_wait)
        worker = threading.Thread(
            target=_shard_worker_main,
            args=(0, 0, child, spec, False, False, False, 0.05),
            daemon=True,
        )
        worker.start()
        try:
            assert parent.recv()[0] == "ready"
            parent.send_bytes(_dumps(
                ("submit", 1, request.to_json(), request.digest)
            ))
            reply = parent.recv()
            while reply[0] == "obs":
                reply = parent.recv()
        finally:
            parent.send_bytes(_dumps(("stop", False)))
            worker.join(30)
        assert not worker.is_alive()
        assert reply[:4] == ("done", 0, 0, 1), reply
        served = RunResult.from_json(reply[4])
        assert served.canonical_json() == expected.canonical_json()
        assert polls == []


class TestCopyFreeAdmissionHit:
    def test_hit_serves_the_record_uncopied_and_isolated(self, monkeypatch):
        cache = ResultCache()
        with EvaluationService(cache=cache, batch_wait_s=0.001) as service:
            expected = service.submit_request(_hls()).result(timeout=30)

            def no_copy(value):
                raise AssertionError("an admission hit copied the record")

            monkeypatch.setattr(cache_module, "copy_tree", no_copy)
            first = service.submit_request(_hls())
            assert first.done()
            served = first.result()
            served.metrics.clear()
            served.metrics["injected"] = -1.0
            again = service.submit_request(_hls()).result()
        assert again.metrics == expected.metrics
        assert again.canonical_json() == expected.canonical_json()
        assert cache.stats()["hits"] == 2

    def test_from_json_owns_nested_metrics(self):
        payload = build_run_result(
            "hls", {"trace": [1, 2], "area": 3.0}, config={}, seed=0,
        ).to_json()
        result = RunResult.from_json(payload)
        result.metrics["trace"].append(3)
        result.metrics["area"] = 0.0
        assert payload["metrics"] == {"trace": [1, 2], "area": 3.0}


class TestProcessShardHitPath:
    def test_routed_hits_isolated_with_no_waitpid_or_selector(
        self, tmp_path, monkeypatch
    ):
        """Through a process shard: a mutated served hit leaves the
        next hit unchanged, and neither routing nor submitting asks
        the OS whether the worker lives, nor builds a selector to
        watch the parent's end of the pipe."""
        cluster = ShardCluster(
            num_shards=1, backend="process", batch_wait_s=0.001,
            cache=str(tmp_path / "cache.json"), supervise=False,
        )
        try:
            assert cluster.wait_ready(timeout=90)
            expected = cluster.submit_request(_hls()).result(timeout=120)
            shard = cluster._slots[0].service
            submitter = threading.current_thread()
            probes = []
            polls = []
            is_alive = shard._process.is_alive
            original_wait = multiprocessing.connection.wait

            def counting_is_alive():
                if threading.current_thread() is submitter:
                    probes.append(1)
                return is_alive()

            def counting_wait(object_list, timeout=None):
                if shard._conn in object_list:
                    polls.append(timeout)
                return original_wait(object_list, timeout)

            monkeypatch.setattr(shard._process, "is_alive", counting_is_alive)
            monkeypatch.setattr(
                multiprocessing.connection, "wait", counting_wait
            )
            request = _hls()
            hits = []
            for _ in range(10):
                result = cluster.submit_request(request).result(timeout=60)
                hits.append(result.canonical_json())
                result.metrics.clear()
            assert probes == [] and polls == []
            monkeypatch.undo()
            assert cluster.check_shards() == []
            snapshot = cluster.snapshot()
        finally:
            cluster.shutdown()
        assert hits == [expected.canonical_json()] * 10
        assert snapshot["evaluations"]["cache_hits"] == 10
