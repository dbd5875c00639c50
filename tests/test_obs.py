"""Tests for the :mod:`repro.obs` observability spine.

The load-bearing guarantees: trace identity is *deterministic* (the
same request stream yields byte-identical canonical traces whether it
runs serially or across a process pool), the disabled path records
nothing, and every surface that summarizes a latency distribution goes
through the one shared percentile implementation in
:mod:`repro.obs.stats`.
"""

import hashlib
import json

import pytest

from repro import obs
from repro.core.errors import SimulationTimeout, ValidationError
from repro.exec import ParallelEvaluator
from repro.obs.ledger import get_ledger
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    render_summary,
    render_trace,
    select_trace,
    summarize_spans,
)
from repro.obs.stats import bucket_percentile, percentile, summary
from repro.obs.trace import (
    Tracer,
    canonical_spans,
    derive_span_id,
    derive_trace_id,
    get_tracer,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the spine off and empty."""
    obs.disable()
    get_tracer().reset()
    get_ledger().reset()
    obs.get_metrics().reset()
    yield
    obs.disable()
    get_tracer().reset()
    get_ledger().reset()
    obs.get_metrics().reset()


# ------------------------------------------------------------ identities


class TestIdentity:
    def test_trace_ids_deterministic(self):
        assert derive_trace_id("digest", 0) == derive_trace_id("digest", 0)
        assert derive_trace_id("digest", 0) != derive_trace_id("digest", 1)
        assert derive_trace_id("digest", 0) != derive_trace_id("other", 0)
        assert len(derive_trace_id("digest", 0)) == 16

    def test_span_ids_deterministic(self):
        a = derive_span_id("t", "p", "work", 0)
        assert a == derive_span_id("t", "p", "work", 0)
        assert a != derive_span_id("t", "p", "work", 1)
        assert a != derive_span_id("t", "p", "other", 0)
        assert len(a) == 16


# ------------------------------------------------------------ shared stats


class TestStats:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5

    def test_percentile_edge_cases(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValidationError):
            percentile([1.0], 101)

    def test_summary_shape(self):
        stats = summary([1.0, 3.0])
        assert stats["count"] == 2
        assert stats["mean"] == 2.0
        assert stats["max"] == 3.0
        assert stats["p50"] == 2.0
        assert summary([]) == {
            "count": 0, "mean": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_bucket_percentile_interpolates_within_bucket(self):
        bounds = (1.0, 2.0, 4.0)
        counts = [0, 4, 0, 0]  # all mass in (1, 2]
        assert bucket_percentile(bounds, counts, 0) == pytest.approx(1.0)
        assert bucket_percentile(bounds, counts, 100) == pytest.approx(2.0)
        assert bucket_percentile(bounds, counts, 50) == pytest.approx(1.5)

    def test_bucket_percentile_overflow_and_empty(self):
        bounds = (1.0, 2.0)
        assert bucket_percentile(bounds, [0, 0, 3], 99) == 2.0
        assert bucket_percentile(bounds, [0, 0, 0], 50) == 0.0
        with pytest.raises(ValidationError):
            bucket_percentile(bounds, [1, 2], 50)

    def test_serve_metrics_use_the_shared_percentile(self):
        """Regression: one percentile implementation, not three."""
        from repro.obs import stats
        from repro.serve import metrics as serve_metrics

        assert serve_metrics._summary is stats.summary

    def test_serve_snapshot_matches_shared_summary(self):
        from repro.serve.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        samples = [0.010, 0.020, 0.030, 0.090]
        for latency in samples:
            metrics.record_done(latency_s=latency, queue_wait_s=0.0,
                                ok=True)
        snap = metrics.snapshot()
        assert snap["latency_s"] == summary(samples)


# ---------------------------------------------------------------- tracer


class TestTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer()
        assert tracer.start_span("work", trace_id="t") is None
        with tracer.span("work") as span:
            assert span is None
        assert tracer.spans() == []

    def test_no_context_means_no_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("floating") as span:
            assert span is None
        assert tracer.spans() == []

    def test_nesting_and_deterministic_ids(self):
        def build():
            tracer = Tracer(enabled=True)
            tid = derive_trace_id("digest", 0)
            root = tracer.start_span("request", trace_id=tid,
                                     parent_id="")
            with tracer.activate(root.context):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        pass
                with tracer.span("outer"):
                    pass
            tracer.end_span(root)
            return tracer

        first, second = build(), build()
        assert first.canonical_json() == second.canonical_json()
        spans = {s["name"]: s for s in first.spans()}
        outers = sorted(
            (s for s in first.spans() if s["name"] == "outer"),
            key=lambda s: s["order"],
        )
        assert spans["inner"]["parent_id"] == outers[0]["span_id"]
        assert all(
            s["parent_id"] == spans["request"]["span_id"] for s in outers
        )
        # The two "outer" siblings differ by order, hence by id.
        assert len({s["span_id"] for s in outers}) == 2
        assert [s["order"] for s in outers] == [0, 1]

    def test_span_marks_error_status_on_exception(self):
        tracer = Tracer(enabled=True)
        root = tracer.start_span("r", trace_id="t", parent_id="")
        with tracer.activate(root.context):
            with pytest.raises(RuntimeError):
                with tracer.span("broken"):
                    raise RuntimeError("boom")
        record = tracer.spans()[0]
        assert record["name"] == "broken"
        assert record["status"] == "error"

    def test_sink_captures_instead_of_global_list(self):
        tracer = Tracer(enabled=True)
        root = tracer.start_span("r", trace_id="t", parent_id="")
        captured = []
        with tracer.activate(root.context, sink=captured):
            with tracer.span("shipped"):
                pass
        assert [s["name"] for s in captured] == ["shipped"]
        assert tracer.spans() == []

    def test_max_spans_drops_and_counts(self):
        tracer = Tracer(enabled=True, max_spans=2)
        root = tracer.start_span("r", trace_id="t", parent_id="")
        with tracer.activate(root.context):
            for _ in range(4):
                with tracer.span("w"):
                    pass
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 2

    def test_canonical_spans_strip_volatile_fields(self):
        tracer = Tracer(enabled=True)
        root = tracer.start_span(
            "r", trace_id="t", parent_id="",
            volatile={"batch_size": 3},
        )
        tracer.end_span(root)
        (record,) = canonical_spans(tracer.spans())
        assert "start_s" not in record
        assert "duration_s" not in record
        assert "volatile" not in record
        assert record["name"] == "r"

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        root = tracer.start_span("r", trace_id="t", parent_id="")
        tracer.end_span(root)
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 1
        assert obs.load_trace_jsonl(path) == tracer.spans()

    def test_chrome_trace_shape(self):
        tracer = Tracer(enabled=True)
        root = tracer.start_span("r", trace_id="t", parent_id="",
                                 start_s=1.0)
        tracer.end_span(root, end_s=1.5)
        doc = tracer.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        meta, event = doc["traceEvents"]
        assert meta["ph"] == "M"
        assert event["ph"] == "X"
        assert event["name"] == "r"
        assert event["dur"] == pytest.approx(0.5e6)


# ---------------------------------------------------------------- ledger


class TestLedger:
    def test_disabled_records_nothing(self):
        ledger = get_ledger()
        assert ledger.event("run.started") is None
        assert ledger.events() == []

    def test_trace_id_comes_from_active_context(self):
        tracer = obs.enable_tracing()
        ledger = obs.enable_ledger()
        tid = derive_trace_id("digest", 0)
        root = tracer.start_span("r", trace_id=tid, parent_id="")
        with tracer.activate(root.context):
            ledger.event("cache.hit")
        ledger.event("run.finished")
        hit, finished = ledger.events()
        assert hit["trace_id"] == tid
        assert finished["trace_id"] == ""

    def test_capture_and_extend_round_trip(self):
        ledger = obs.enable_ledger()
        with obs.capture({"ledger": True}, "task") as captured:
            ledger.event("fault.injected", component="ssd")
        assert ledger.events() == []
        obs.absorb(captured.envelope())
        (record,) = ledger.events()
        assert record["event"] == "fault.injected"
        assert record["component"] == "ssd"
        assert record["seq"] == 0

    def test_extend_forwards_through_outer_capture(self):
        ledger = obs.enable_ledger()
        with obs.capture({"ledger": True}, "inner") as inner:
            ledger.event("retry", attempt=1)
        with obs.capture({"ledger": True}, "outer") as outer:
            obs.absorb(inner.envelope())
        assert [r["event"] for r in outer.records] == ["retry"]
        assert ledger.events() == []

    def test_canonical_json_groups_and_strips_volatile(self):
        ledger = obs.enable_ledger()
        ledger.event("b.event", trace_id="t2", delay_s=0.5)
        ledger.event("a.event", trace_id="t1")
        grouped = json.loads(ledger.canonical_json())
        assert [g["trace_id"] for g in grouped] == ["t1", "t2"]
        (b_event,) = grouped[1]["events"]
        assert b_event["event"] == "b.event"
        assert "ts" not in b_event
        assert "delay_s" not in b_event


# --------------------------------------------------------------- metrics


class TestMetrics:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("requests", 2)
        registry.inc("requests")
        assert registry.snapshot()["counters"]["requests"] == 3.0
        with pytest.raises(ValidationError):
            registry.counter("requests").inc(-1)

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry()
        registry.inc("requests")
        registry.set_gauge("depth", 4)
        registry.observe("latency", 0.1)
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_histogram_percentiles_from_buckets(self):
        hist = Histogram("latency", bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.002, 0.003, 0.05):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 0.0005
        assert snap["max"] == 0.05
        assert snap["counts"] == [1, 2, 1, 0]
        assert 0.001 <= snap["p50"] <= 0.01

    def test_histogram_merge_is_count_addition(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.5):
            a.observe(value)
        for value in (1.7, 5.0):
            b.observe(value)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counts"] == [1, 2, 1]
        assert snap["count"] == 4
        assert snap["min"] == 0.5
        assert snap["max"] == 5.0

    def test_histogram_merge_rejects_different_bounds(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 4.0))
        with pytest.raises(ValidationError):
            a.merge(b.snapshot())
        with pytest.raises(ValidationError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_merge_snapshot_folds_worker_metrics(self):
        worker = MetricsRegistry(enabled=True)
        worker.inc("cache.hits", 3)
        worker.set_gauge("depth", 7)
        worker.observe("latency", 0.02)
        parent = MetricsRegistry(enabled=True)
        parent.inc("cache.hits", 1)
        parent.merge_snapshot(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["cache.hits"] == 4.0
        assert snap["gauges"]["depth"] == 7.0
        assert snap["histograms"]["latency"]["count"] == 1

    def test_drain_ships_each_record_once(self):
        worker = MetricsRegistry(enabled=True)
        worker.inc("cache.hits", 3)
        worker.inc("retries", 0)
        worker.set_gauge("depth", 7)
        worker.observe("latency", 0.02)
        parent = MetricsRegistry(enabled=True)
        parent.merge_snapshot(worker.drain())
        assert worker.drain() == {}
        worker.inc("cache.hits")
        parent.merge_snapshot(worker.drain())
        snap = parent.snapshot()
        assert snap["counters"] == {"cache.hits": 4.0, "retries": 0.0}
        assert snap["gauges"] == {"depth": 7.0}
        assert snap["histograms"]["latency"]["count"] == 1
        assert snap["histograms"]["latency"]["max"] == 0.02

    def test_to_json_is_sorted_and_parseable(self):
        registry = MetricsRegistry(enabled=True)
        registry.observe("latency", 0.5)
        snap = json.loads(registry.to_json())
        assert list(snap["histograms"]["latency"]["bounds"]) == list(
            DEFAULT_BOUNDS
        )


# ------------------------------------------------- context propagation


def _span_task(x):
    """Module-level (picklable) task that opens a span per call."""
    with get_tracer().span("inner", attributes={"x": x}):
        return x * x


def _run_exec_traced(workers):
    """Map :func:`_span_task` under a root span; returns the results
    plus the canonical trace."""
    tracer = obs.enable_tracing()
    tracer.reset()
    get_ledger().reset()
    tid = derive_trace_id("exec-test", 0)
    root = tracer.start_span("driver", trace_id=tid, parent_id="")
    with tracer.activate(root.context):
        engine = ParallelEvaluator(max_workers=workers)
        results = engine.map(_span_task, list(range(6)))
    tracer.end_span(root)
    return results, tracer.canonical_json(), tracer.spans()


def _hls_cell(muls):
    """Module-level (picklable) task: one ``@profiled`` HLS kernel."""
    from repro.hls.ir import OpKind
    from repro.hls.kernels import _dot_body
    from repro.hls.scheduling import schedule_list

    return schedule_list(_dot_body(), {OpKind.MUL: muls}).makespan


def _traced_map_json(engine, tasks):
    """Map :func:`_hls_cell` on *engine* under a fresh root span;
    returns the canonical trace."""
    tracer = obs.enable_tracing()
    tracer.reset()
    root = tracer.start_span(
        "root", trace_id=derive_trace_id("hls-cell", 0), parent_id=""
    )
    with tracer.activate(root.context):
        engine.map(_hls_cell, tasks)
    tracer.end_span(root)
    return tracer.canonical_json()


class TestContextPropagation:
    def test_worker_spans_parent_under_task_spans(self):
        _, _, spans = _run_exec_traced(workers=1)
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["exec.task"]) == 6
        assert len(by_name["inner"]) == 6
        (root,) = by_name["driver"]
        # The engine's own @profiled "exec.map" span sits under the
        # root span; the per-task spans nest below it.
        (map_span,) = by_name["exec.map"]
        assert map_span["parent_id"] == root["span_id"]
        task_ids = {s["span_id"] for s in by_name["exec.task"]}
        assert all(
            s["parent_id"] == map_span["span_id"]
            for s in by_name["exec.task"]
        )
        assert all(s["parent_id"] in task_ids for s in by_name["inner"])
        # Task order is the original task index, so the tree is stable.
        assert sorted(s["order"] for s in by_name["exec.task"]) == list(
            range(6)
        )

    def test_process_pool_trace_is_byte_identical_to_serial(self):
        serial_results, serial_trace, _ = _run_exec_traced(workers=1)
        pool_results, pool_trace, _ = _run_exec_traced(workers=4)
        assert pool_results == serial_results == [
            x * x for x in range(6)
        ]
        assert pool_trace == serial_trace

    def test_pool_forked_before_tracing_matches_serial_trace(self):
        """Regression: a persistent worker forked while tracing was off
        must still emit ``@profiled`` kernel spans once it is on."""
        engine = ParallelEvaluator(max_workers=2, mode="process")
        try:
            # Two tasks: a one-task map runs inline and forks nothing.
            assert engine.map(_hls_cell, [1, 2]) == [
                _hls_cell(1), _hls_cell(2)
            ]
            pooled_trace = _traced_map_json(engine, [1, 2])
        finally:
            engine.close()
        serial_trace = _traced_map_json(
            ParallelEvaluator(max_workers=1, mode="serial"), [1, 2]
        )
        assert "hls.schedule_list" in serial_trace
        assert pooled_trace == serial_trace

    def test_untraced_map_returns_plain_results(self):
        engine = ParallelEvaluator(max_workers=1)
        assert engine.map(_span_task, [2, 3]) == [4, 9]
        assert get_tracer().spans() == []


# ------------------------------------------------------- serve tracing


def _serve_traced(workers, *, seeds=(0, 1, 2)):
    """Serve a small imc-crossbar stream with full observability on."""
    from repro.serve import EvalRequest, serve_requests

    tracer = obs.enable_tracing()
    obs.enable_ledger()
    tracer.reset()
    get_ledger().reset()
    requests = [
        EvalRequest(
            workload="imc-crossbar",
            config={"rows": 16, "cols": 16, "num_inputs": 2},
            seed=seed,
        )
        for seed in seeds
    ]
    parallel = (
        ParallelEvaluator(max_workers=workers) if workers > 1 else None
    )
    results, _ = serve_requests(requests, batch_size=4, parallel=parallel)
    return (
        requests,
        results,
        tracer.canonical_json(),
        get_ledger().canonical_json(),
        tracer.spans(),
    )


#: SHA-256 of ``_serve_traced``'s canonical trace and canonical ledger,
#: recorded with spans and events in separate stores (Python 3.11.7,
#: numpy 2.4.6).  Keeping both record kinds in one store must not move
#: a byte of either encoding.
_PINNED_SERVE_DIGESTS = (
    "a0321ea1e248e7ae29e7d17158a3cb9a9a8a50657b7c624ae4b0a165da7bb5ce",
    "70078a8005bf3d87bdc65c6f0c79555cfe053fb17555acb04db63d9b5cb68d6a",
)


class TestServeTracing:
    def test_request_trace_has_the_full_hierarchy(self):
        requests, results, _, _, spans = _serve_traced(workers=1)
        trace_ids = {s["trace_id"] for s in spans}
        assert len(trace_ids) == len(requests)
        for request, result in zip(requests, results):
            per_trace = [
                s for s in spans if s["trace_id"] == result.trace_id
            ]
            by_name = {}
            for span in per_trace:
                by_name.setdefault(span["name"], []).append(span)
            (root,) = by_name["request"]
            assert root["parent_id"] == ""
            assert root["attributes"]["digest"] == request.digest
            (wait,) = by_name["queue.wait"]
            (batch,) = by_name["batch"]
            assert wait["parent_id"] == root["span_id"]
            assert batch["parent_id"] == root["span_id"]
            (worker,) = by_name["worker"]
            assert worker["parent_id"] == batch["span_id"]
            kernel_spans = by_name["imc.mvm"]
            assert kernel_spans
            assert all(
                s["parent_id"] == worker["span_id"] for s in kernel_spans
            )

    def test_serial_and_process_pool_traces_byte_identical(self):
        _, serial_results, serial_trace, serial_ledger, _ = _serve_traced(
            workers=1
        )
        _, pool_results, pool_trace, pool_ledger, _ = _serve_traced(
            workers=4
        )
        assert serial_trace == pool_trace
        assert serial_ledger == pool_ledger
        assert [r.canonical_json() for r in serial_results] == [
            r.canonical_json() for r in pool_results
        ]

    def test_rerun_reproduces_trace_ids(self):
        _, first_results, first_trace, _, _ = _serve_traced(workers=1)
        _, second_results, second_trace, _, _ = _serve_traced(workers=1)
        assert first_trace == second_trace
        assert [r.trace_id for r in first_results] == [
            r.trace_id for r in second_results
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_canonical_bytes_are_pinned(self, workers):
        _, _, trace, ledger, _ = _serve_traced(workers=workers)
        assert tuple(
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in (trace, ledger)
        ) == _PINNED_SERVE_DIGESTS

    def test_duplicate_requests_share_evaluation_not_trace(self):
        _, results, _, _, spans = _serve_traced(workers=1, seeds=(5, 5))
        assert len({r.trace_id for r in results}) == 2
        # Only one worker evaluation happened; the second trace records
        # a dedup event instead of worker spans.
        workers = [s for s in spans if s["name"] == "worker"]
        assert len(workers) == 1
        events = get_ledger().events()
        deduped = [
            e for e in events if e["event"] == "evaluation.deduped"
        ]
        assert len(deduped) == 1
        assert deduped[0]["source_trace"] == workers[0]["trace_id"]

    def test_tracing_off_serves_identically(self):
        from repro.serve import EvalRequest, serve_requests

        request = EvalRequest(
            workload="imc-crossbar",
            config={"rows": 16, "cols": 16, "num_inputs": 2},
            seed=3,
        )
        results, _ = serve_requests([request])
        assert results[0].ok
        assert results[0].trace_id is None
        assert get_tracer().spans() == []


class _ObsBrokenWorkload:
    name = "test-obs-broken"

    def space(self):
        return {"x": (1,)}

    def evaluate(self, config, *, seed=0, impl=None):
        raise RuntimeError("obs test explosion")


class TestErrorPathTraceIds:
    def test_error_result_carries_trace_id(self):
        from repro.core.api import register_workload
        from repro.serve import EvaluationService

        register_workload(_ObsBrokenWorkload(), replace=True)
        obs.enable_tracing()
        obs.enable_ledger()
        get_tracer().reset()
        get_ledger().reset()
        with EvaluationService(batch_wait_s=0.001) as service:
            result = service.evaluate("test-obs-broken")
        assert result.status == "error"
        assert result.trace_id in get_tracer().trace_ids()
        root = [
            s
            for s in get_tracer().spans(result.trace_id)
            if s["name"] == "request"
        ][0]
        assert root["status"] == "error"
        events = {
            e["event"]: e
            for e in get_ledger().events(result.trace_id)
        }
        assert events["request.error"]["error_type"] == "RuntimeError"
        assert events["request.done"]["status"] == "error"

    def test_trace_id_excluded_from_canonical_result(self):
        from repro.core.api import VOLATILE_FIELDS, build_run_result

        assert "trace_id" in VOLATILE_FIELDS
        traced = build_run_result(
            "w", {"m": 1}, config={}, seed=0, trace_id="abc"
        )
        plain = build_run_result("w", {"m": 1}, config={}, seed=0)
        assert traced.canonical_json() == plain.canonical_json()

    def test_simulation_timeout_picks_up_active_trace(self):
        tracer = obs.enable_tracing()
        tid = derive_trace_id("timeout-test", 0)
        root = tracer.start_span("r", trace_id=tid, parent_id="")
        with tracer.activate(root.context):
            exc = SimulationTimeout("too slow")
        assert exc.trace_id == tid

    def test_simulation_timeout_without_trace_has_none(self):
        assert SimulationTimeout("too slow").trace_id is None
        assert SimulationTimeout(
            "too slow", trace_id="explicit"
        ).trace_id == "explicit"


# ---------------------------------------------------------- resilience


class TestResilienceLedger:
    def test_retries_and_exhaustion_logged(self):
        from repro.core.errors import TransientFault
        from repro.resilience import BackoffPolicy, resilient_run

        obs.enable_ledger()
        get_ledger().reset()
        policy = BackoffPolicy(
            max_attempts=2, base_delay_s=0.0, jitter=0.0
        )

        def always_fails():
            raise TransientFault("flaky")

        with pytest.raises(TransientFault):
            resilient_run(
                always_fails, policy=policy, retry_on=(TransientFault,)
            )
        names = [e["event"] for e in get_ledger().events()]
        assert names == ["retry", "retries.exhausted"]

    def test_fault_injection_logged(self):
        from repro.resilience.faults import FaultyStorage

        class _Tier:
            name = "ssd"

            def read_time_s(self, num_bytes, accesses=1):
                return 0.0

        obs.enable_ledger()
        get_ledger().reset()
        from repro.core.errors import TransientFault

        storage = FaultyStorage(_Tier(), rate=1.0, rng=0)
        with pytest.raises(TransientFault):
            storage.read_time_s(1024)
        (event,) = get_ledger().events()
        assert event["event"] == "fault.injected"
        assert event["component"] == "ssd"


# ------------------------------------------------------------- reports


def _sample_spans():
    tracer = Tracer(enabled=True)
    tid = derive_trace_id("report-test", 0)
    root = tracer.start_span(
        "request", trace_id=tid, parent_id="", start_s=1.0,
        attributes={"workload": "hls"},
    )
    with tracer.activate(root.context):
        child = tracer.start_span("batch", start_s=1.1)
        tracer.end_span(child, end_s=1.2, status="error")
    tracer.end_span(root, end_s=1.5)
    return tid, tracer.spans()


class TestReports:
    def test_render_trace_indents_children(self):
        _, spans = _sample_spans()
        text = render_trace(spans)
        lines = text.splitlines()
        assert lines[0].startswith("- request")
        assert "[workload=hls]" in lines[0]
        assert lines[1].startswith("  - batch")
        assert "!error" in lines[1]

    def test_render_trace_includes_events(self):
        _, spans = _sample_spans()
        text = render_trace(
            spans, [{"event": "cache.hit", "trace_id": "t", "ts": 0.0}]
        )
        assert "events:" in text
        assert "* cache.hit" in text

    def test_render_trace_handles_empty(self):
        assert render_trace([]) == "(no spans)"

    def test_summarize_spans_uses_shared_summary(self):
        _, spans = _sample_spans()
        table = summarize_spans(spans)
        durations = [
            s["duration_s"] for s in spans if s["name"] == "request"
        ]
        assert table["request"] == summary(durations)

    def test_render_summary_counts(self):
        _, spans = _sample_spans()
        text = render_summary(
            spans, [{"event": "cache.hit", "trace_id": "t", "ts": 0.0}]
        )
        assert "traces: 1" in text
        assert "spans: 2" in text
        assert "event cache.hit: 1" in text

    def test_select_trace_accepts_unique_prefix(self):
        tid, spans = _sample_spans()
        assert select_trace(spans, tid) == spans_for(spans, tid)
        assert select_trace(spans, tid[:6]) == spans_for(spans, tid)
        assert select_trace(spans, "zz") == []


def spans_for(spans, tid):
    return [dict(s) for s in spans if s["trace_id"] == tid]


# ----------------------------------------------------------------- CLI


class TestObsCli:
    def _serve_with_trace_dir(self, trace_dir, capsys):
        from repro.cli import main

        assert main([
            "serve", "--workload", "hls", "--num-requests", "6",
            "--batch-size", "4", "--seed", "1",
            "--trace-dir", trace_dir,
        ]) == 0
        return capsys.readouterr().out

    def test_serve_writes_trace_artifacts(self, tmp_path, capsys):
        import os

        trace_dir = str(tmp_path / "obs")
        out = self._serve_with_trace_dir(trace_dir, capsys)
        assert "trace:" in out
        for name in ("trace.jsonl", "ledger.jsonl", "trace.chrome.json"):
            assert os.path.exists(os.path.join(trace_dir, name))
        doc = json.loads(
            (tmp_path / "obs" / "trace.chrome.json").read_text()
        )
        assert doc["traceEvents"]
        # The CLI leaves the spine off for the rest of the process.
        assert not get_tracer().enabled
        assert not get_ledger().enabled

    def test_obs_summary_and_show(self, tmp_path, capsys):
        from repro.cli import main

        trace_dir = str(tmp_path / "obs")
        self._serve_with_trace_dir(trace_dir, capsys)
        assert main(["obs", "summary", "--trace-dir", trace_dir]) == 0
        out = capsys.readouterr().out
        assert "traces: 6" in out
        assert "request" in out

        spans = obs.load_trace_jsonl(tmp_path / "obs" / "trace.jsonl")
        tid = spans[0]["trace_id"]
        assert main(
            ["obs", "show", tid[:8], "--trace-dir", trace_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "- request" in out
        assert "queue.wait" in out

    def test_obs_export_chrome(self, tmp_path, capsys):
        from repro.cli import main

        trace_dir = str(tmp_path / "obs")
        self._serve_with_trace_dir(trace_dir, capsys)
        out_path = tmp_path / "exported.json"
        assert main([
            "obs", "export", "--format", "chrome",
            "--trace-dir", trace_dir, "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert {"traceEvents", "displayTimeUnit"} <= set(doc)

    def test_obs_missing_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "obs", "summary", "--trace-dir", str(tmp_path / "nope"),
        ]) == 1
        err = capsys.readouterr().err
        assert "repro serve --trace-dir" in err
