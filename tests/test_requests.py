"""The shared request-evaluation path (repro.exec.requests).

The service and the campaign runner evaluate requests through one
worker and one batch function, so both apply the same rules: a
quarantined worker crash degrades to an error record instead of taking
the batch down, errors are outcomes that are never cached, a follower
of an errored leader gets a fresh attempt, and a record written by one
path (traced ``__obs__`` envelopes included) reads back on the other.
"""

import os
import time

import pytest

from repro import obs
from repro.campaign import CampaignGraph, GraphRunner
from repro.core.api import build_run_result, get_workload, register_workload
from repro.core.errors import ValidationError, WorkerCrashError
from repro.exec import ParallelEvaluator, ResultCache
from repro.obs.ledger import get_ledger
from repro.obs.trace import get_tracer
from repro.serve import EvaluationService

_MAIN_PID = os.getpid()


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    get_tracer().reset()
    get_ledger().reset()
    yield
    obs.disable()
    get_tracer().reset()
    get_ledger().reset()


class _PoisonWorkload:
    """``x == 13`` kills the worker process that evaluates it; any other
    ``x`` evaluates normally.  In the test process itself the poison
    raises instead, so a fallback to in-process execution cannot kill
    the test run.  A ``log`` path in the config gets one line per
    evaluation, from whichever process runs it; with one, the poison
    lets its batch-mates ``x = 1, 2`` finish before it kills its
    worker."""

    name = "test-requests-poison"

    def space(self):
        return {"x": (1, 2, 13)}

    def evaluate(self, config, *, seed=0, impl=None):
        if "log" in config:
            with open(config["log"], "a") as log:
                log.write(f"{config['x']}\n")
        if config.get("x") == 13:
            if os.getpid() != _MAIN_PID:
                if "log" in config:
                    _await_batch_mates(config["log"])
                os._exit(29)
            raise RuntimeError("poison evaluated in the test process")
        return build_run_result(
            self.name, {"x": float(config["x"])},
            config=dict(config), seed=seed, impl=impl,
        )


def _await_batch_mates(log, mates=("1", "2"), timeout_s=10.0):
    """Wait until *log* shows every batch-mate evaluated, then a little
    longer for their results to reach the coordinator: a worker crash
    then takes no unfinished batch-mate with it, so any second
    evaluation is the recovery's doing."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with open(log) as fh:
            if set(mates) <= set(fh.read().split()):
                break
        time.sleep(0.01)
    time.sleep(0.2)


class _FailsFirstWorkload:
    """Fails on the first call per (config, seed), succeeds after: the
    shape that tells a cached error from a fresh attempt."""

    name = "test-requests-fails-first"

    def __init__(self):
        self.calls = {}

    def space(self):
        return {"x": (1, 2)}

    def evaluate(self, config, *, seed=0, impl=None):
        key = (tuple(sorted(config.items())), seed)
        self.calls[key] = self.calls.get(key, 0) + 1
        if self.calls[key] == 1:
            raise RuntimeError("first call fails")
        return build_run_result(
            self.name, {"x": float(config.get("x", 1))},
            config=dict(config), seed=seed, impl=impl,
        )


register_workload(_PoisonWorkload(), replace=True)


@pytest.fixture
def fails_first():
    workload = _FailsFirstWorkload()
    register_workload(workload, replace=True)
    return workload


def _graph(name, *configs):
    graph = CampaignGraph(name=name)
    for index, (workload, config) in enumerate(configs):
        graph.evaluate(f"n{index}", workload, config=config, seed=0)
    return graph


def _serve_batch(*xs, **extra):
    """Serve one batch of poison-workload requests (``x`` plus *extra*
    config) on a 2-worker process evaluator; results in request
    order."""
    engine = ParallelEvaluator(max_workers=2, mode="process")
    service = EvaluationService(
        parallel=engine, batch_size=8, batch_wait_s=0.001, start=False
    )
    try:
        futures = [
            service.submit(_PoisonWorkload.name, {"x": x, **extra})
            for x in xs
        ]
        service.start()
        return [future.result(timeout=60) for future in futures]
    finally:
        service.shutdown()


class TestPoisonRequests:
    def test_served_poison_request_degrades_to_error(self):
        obs.enable_ledger()
        ok_a, poison, ok_b = _serve_batch(1, 13, 2)
        assert poison.status == "error"
        assert poison.error_type == "WorkerCrashError"
        assert ok_a.ok and ok_b.ok
        assert ok_a.metrics == {"x": 1.0} and ok_b.metrics == {"x": 2.0}
        events = [e["event"] for e in get_ledger().events()]
        assert "batch.worker_crash" in events

    def test_batch_mates_of_a_quarantined_request_run_once(self, tmp_path):
        log = str(tmp_path / "evaluations.log")
        ok_a, poison, ok_b = _serve_batch(1, 13, 2, log=log)
        assert poison.error_type == "WorkerCrashError"
        assert ok_a.metrics == {"x": 1.0} and ok_b.metrics == {"x": 2.0}
        with open(log) as fh:
            runs = fh.read().split()
        assert runs.count("1") == 1 and runs.count("2") == 1

    def test_follower_of_quarantined_leader_gets_no_fresh_attempt(self):
        # The twin coalesces onto the poison's evaluation.  A fresh
        # attempt would run the quarantined digest keyless, which the
        # evaluator can neither refuse nor quarantine.
        ok_a, poison, twin = _serve_batch(1, 13, 13)
        assert ok_a.ok
        for result in (poison, twin):
            assert result.status == "error"
            assert result.error_type == "WorkerCrashError"

    def test_campaign_crash_becomes_error_node(self):
        engine = ParallelEvaluator(max_workers=2, mode="process")
        graph = _graph(
            "crash",
            (_PoisonWorkload.name, {"x": 1}),
            (_PoisonWorkload.name, {"x": 13}),
            (_PoisonWorkload.name, {"x": 2}),
        )
        try:
            report = GraphRunner(parallel=engine).run(graph)
        finally:
            engine.close()
        poison = report.results["n1"]
        assert poison.status == "error"
        assert poison.error_type == "WorkerCrashError"
        assert report.value("n0").metrics == {"x": 1.0}
        assert report.value("n2").metrics == {"x": 2.0}

    def test_uncaptured_campaign_crash_still_raises(self):
        engine = ParallelEvaluator(max_workers=2, mode="process")
        graph = CampaignGraph(name="crash-raw")
        graph.evaluate("n0", _PoisonWorkload.name, config={"x": 1})
        graph.evaluate(
            "n1", _PoisonWorkload.name, config={"x": 13},
            capture_errors=False,
        )
        try:
            with pytest.raises(WorkerCrashError):
                GraphRunner(parallel=engine).run(graph)
        finally:
            engine.close()


class TestCampaignErrors:
    def test_errors_are_not_cached_across_runs(self, fails_first):
        cache = ResultCache()
        graph = _graph("twice", (fails_first.name, {"x": 1}))
        first = GraphRunner(cache=cache).run(graph)
        second = GraphRunner(cache=cache).run(graph)
        assert first.results["n0"].status == "error"
        assert second.results["n0"].status == "ok"
        assert sum(fails_first.calls.values()) == 2

    def test_follower_of_failed_leader_gets_fresh_attempt(
        self, fails_first
    ):
        graph = _graph(
            "followers",
            (fails_first.name, {"x": 2}),
            (fails_first.name, {"x": 2}),
        )
        report = GraphRunner(cache=ResultCache()).run(graph)
        assert report.results["n0"].status == "error"
        assert report.results["n1"].status == "ok"


class TestMixedPaths:
    def test_untraced_runner_reads_traced_service_records(self):
        cache = ResultCache()
        config = {"rows": 16, "cols": 16, "num_inputs": 2}
        obs.enable_tracing()
        with EvaluationService(cache=cache, batch_wait_s=0.001) as service:
            served = service.evaluate("imc-crossbar", config, seed=3)
        obs.disable()
        graph = CampaignGraph(name="mixed")
        graph.evaluate("cell", "imc-crossbar", config=config, seed=3)
        report = GraphRunner(cache=cache).run(graph)
        result = report.value("cell")
        assert result.status == "ok"
        assert result.same_result(served)


class TestSpaceConfigsFailTyped:
    CASES = [
        (
            "dna-pipeline",
            {"payload_bytes": 32, "rs_n": 63, "rs_k": 223},
        ),
        (
            "imc-crossbar",
            {"rows": 32, "cols": 32, "num_inputs": 4, "t_seconds": 0.1},
        ),
    ]

    @pytest.mark.parametrize("name,config", CASES)
    def test_direct_evaluate_raises_validation_error(self, name, config):
        with pytest.raises(ValidationError):
            get_workload(name).evaluate(config, seed=0)

    @pytest.mark.parametrize("name,config", CASES)
    def test_served_request_returns_typed_error(self, name, config):
        with EvaluationService(batch_wait_s=0.001) as service:
            result = service.evaluate(name, config, seed=0)
        assert result.status == "error"
        assert result.error_type == "ValidationError"
