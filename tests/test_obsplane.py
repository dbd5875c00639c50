"""Tests for the cluster-wide observability plane.

Four contracts under test:

- **Trace stitching**: a request served through a ``ShardCluster``
  yields one trace spanning router -> shard worker -> evaluator, with
  the canonical encoding byte-identical across reruns, across the
  inproc/process backends, and across a chaos kill vs a fault-free
  run (replays re-derive the same span ids instead of forking the
  trace).
- **Flight recorder**: bounded ring, named gauge sources, crash dumps
  triggered by ledger watchers, JSONL round trip.
- **SLO layer**: multi-window burn rates over recorder samples,
  breach/recovery ledger transitions, circuit-breaker coupling.
- **Critical path**: request subtrees decomposed into the shared phase
  taxonomy, with stable regression attribution.
"""

import json
import os
import random
import time

import pytest

from repro import obs
from repro.core.api import example_config, get_workload
from repro.core.errors import ValidationError
from repro.core.jit import numba_available
from repro.exec import ParallelEvaluator
from repro.obs.critical import (
    PHASES,
    compare_reports,
    critical_path_report,
    request_breakdowns,
    trace_breakdown,
)
from repro.obs.ledger import get_ledger
from repro.obs.metrics import get_metrics, prometheus_text
from repro.obs.recorder import FlightRecorder, load_flight_jsonl
from repro.obs.slo import SLOEvaluator, SLOSpec, evaluate_slos
from repro.obs.stats import bucket_fraction_above
from repro.obs.trace import derive_span_id, derive_trace_id, get_tracer
from repro.resilience import ChaosPolicy
from repro.serve import ShardCluster, run_chaos_campaign
from repro.serve.request import EvalRequest
from repro.serve.service import EvaluationService

WORKLOAD = "imc-crossbar"


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the spine off and empty."""
    obs.disable()
    get_tracer().reset()
    get_ledger().reset()
    get_metrics().reset()
    yield
    obs.disable()
    get_tracer().reset()
    get_ledger().reset()
    get_metrics().reset()


def _requests(count):
    return [
        EvalRequest(
            workload=WORKLOAD,
            config={"rows": 16, "cols": 16},
            seed=seed,
        )
        for seed in range(count)
    ]


def _serve_cluster(backend, count=4, **kwargs):
    """Serve *count* distinct requests through a fresh 2-shard cluster
    under full observability; returns (canonical_json, spans)."""
    get_tracer().reset()
    get_ledger().reset()
    get_metrics().reset()
    obs.enable()
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("batch_wait_s", 0.002)
    kwargs.setdefault("supervise", False)
    cluster = ShardCluster(backend=backend, **kwargs)
    cluster.wait_ready()
    try:
        futures = [
            cluster.submit_request(request, block=True)
            for request in _requests(count)
        ]
        for future in futures:
            assert future.result().ok
    finally:
        cluster.shutdown()
    tracer = get_tracer()
    canonical = tracer.canonical_json()
    spans = tracer.spans()
    obs.disable()
    return canonical, spans


def _spans_by_trace(spans):
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)
    return by_trace


# ---------------------------------------------------------------- stitching


class TestTraceStitching:
    def test_inproc_request_stitches_router_to_evaluator(self):
        _, spans = _serve_cluster("inproc", count=3)
        for trace_spans in _spans_by_trace(spans).values():
            names = {s["name"]: s for s in trace_spans}
            assert "cluster.request" in names
            assert "request" in names
            assert "worker" in names
            cluster_root = names["cluster.request"]
            request_root = names["request"]
            assert cluster_root["parent_id"] == ""
            assert request_root["parent_id"] == cluster_root["span_id"]
            # The shard-side root carries the owning shard id as a
            # volatile tag (excluded from canonical identity).
            assert request_root["volatile"]["shard"] in (0, 1)

    def test_rerun_canonical_identity_inproc(self):
        first, _ = _serve_cluster("inproc", count=4)
        second, _ = _serve_cluster("inproc", count=4)
        assert first == second

    def test_process_backend_matches_inproc_byte_for_byte(self):
        inproc, _ = _serve_cluster("inproc", count=4)
        process, spans = _serve_cluster("process", count=4)
        assert inproc == process
        # Worker-side spans really crossed the process boundary and
        # were tagged with their shard on arrival.
        workers = [s for s in spans if s["name"] == "worker"]
        assert workers
        assert all(
            s["volatile"].get("shard") in (0, 1) for s in workers
        )

    def test_process_rerun_canonical_identity(self):
        first, _ = _serve_cluster("process", count=3)
        second, _ = _serve_cluster("process", count=3)
        assert first == second

    def test_direct_service_submit_with_trace_ctx(self):
        obs.enable()
        tracer = get_tracer()
        root = tracer.start_span(
            "driver", trace_id=derive_trace_id("driver", 0)
        )
        service = EvaluationService(batch_size=2, batch_wait_s=0.002)
        try:
            future = service.submit(
                WORKLOAD,
                {"rows": 16, "cols": 16},
                seed=0,
                block=True,
                trace_ctx=root.context,
            )
            assert future.result().ok
        finally:
            service.shutdown()
        tracer.end_span(root)
        spans = tracer.spans(root.trace_id)
        names = {s["name"]: s for s in spans}
        assert names["request"]["parent_id"] == root.span_id
        assert "worker" in names

    def test_campaign_layer_dispatch_stitches_under_campaign(self):
        from repro.campaign import CampaignGraph
        from repro.campaign.runner import GraphRunner

        obs.enable()
        graph = CampaignGraph(name="obsplane")
        for index in range(3):
            graph.evaluate(
                f"cell-{index}",
                WORKLOAD,
                config={"rows": 16, "cols": 16},
                seed=index,
            )
        cluster = ShardCluster(
            num_shards=2,
            batch_size=4,
            batch_wait_s=0.002,
            supervise=False,
        )
        try:
            report = GraphRunner(service=cluster).run(graph)
        finally:
            cluster.shutdown()
        assert all(r.ok for r in report.results.values())
        spans = get_tracer().spans()
        campaign_traces = {
            s["trace_id"] for s in spans if s["name"] == "campaign"
        }
        assert len(campaign_traces) == 1
        (tid,) = campaign_traces
        names = [s["name"] for s in spans if s["trace_id"] == tid]
        # Layer dispatch, router, shard and evaluator all landed in
        # the ONE campaign trace.
        for expected in (
            "campaign", "campaign.layer", "cluster.request",
            "request", "worker",
        ):
            assert expected in names
        # Three evaluations under one shared layer span still derive
        # three distinct cluster.request ids (per-parent digest order).
        cluster_spans = [
            s for s in spans
            if s["trace_id"] == tid and s["name"] == "cluster.request"
        ]
        assert len({s["span_id"] for s in cluster_spans}) == 3


# ------------------------------------------------- shard event merge (fix)


class TestMergeShardEvents:
    def _batch(self):
        return [
            {"event": "request.admitted", "trace_id": "t2", "seq": 0,
             "ts": 2.0},
            {"event": "evaluation.computed", "trace_id": "t1",
             "seq": 1, "ts": 1.0},
            {"event": "request.admitted", "trace_id": "t1", "seq": 0,
             "ts": 0.5},
            {"event": "request.done", "trace_id": "t2", "seq": 2,
             "ts": 3.0},
        ]

    def test_merge_sorts_by_trace_then_child_seq(self):
        ledger = get_ledger()
        ledger.enable()
        obs.absorb({"events": self._batch()}, shard=3)
        events = ledger.events()
        assert [
            (e["trace_id"], e["event"]) for e in events
        ] == [
            ("t1", "request.admitted"),
            ("t1", "evaluation.computed"),
            ("t2", "request.admitted"),
            ("t2", "request.done"),
        ]
        assert all(e["shard"] == 3 for e in events)
        # Child-side ordering survives as the volatile shard_seq.
        assert [e["shard_seq"] for e in events] == [0, 1, 0, 2]

    def test_merge_is_deterministic_under_arrival_shuffle(self):
        ledger = get_ledger()
        ledger.enable()
        obs.absorb({"events": self._batch()}, shard=0)
        in_order = ledger.canonical_json()
        ledger.reset()
        shuffled = self._batch()
        random.Random(7).shuffle(shuffled)
        obs.absorb({"events": shuffled}, shard=0)
        assert ledger.canonical_json() == in_order

    def test_disabled_ledger_ignores_batch(self):
        obs.absorb({"events": self._batch()}, shard=0)
        assert get_ledger().events() == []


def _count_call(value):
    get_metrics().inc("test.calls")
    return value


def _sparta_jit_fallbacks(**service_kwargs):
    """Serve four ``sparta`` ``impl="jit"`` requests; the registry's
    ``jit.fallback`` count afterwards."""
    config = example_config(get_workload("sparta"))
    service = EvaluationService(
        batch_size=4, batch_wait_s=0.2, **service_kwargs
    )
    try:
        futures = [
            service.submit_request(
                EvalRequest("sparta", config, seed=seed, impl="jit"),
                block=True,
            )
            for seed in range(4)
        ]
        for future in futures:
            assert future.result(timeout=120).ok
    finally:
        service.shutdown()
    return get_metrics().snapshot()["counters"].get("jit.fallback")


class TestRegistryAcrossProcesses:
    """The metrics registry counts work wherever it ran, and once."""

    def test_process_cluster_counters_match_its_snapshot(self):
        obs.enable()
        cluster = ShardCluster(
            backend="process", num_shards=2, batch_size=4,
            batch_wait_s=0.002, supervise=False,
        )
        cluster.wait_ready()
        try:
            futures = [
                cluster.submit_request(request, block=True)
                for request in _requests(6) * 2
            ]
            for future in futures:
                assert future.result().ok
        finally:
            cluster.shutdown()
        requests = cluster.snapshot()["requests"]
        counters = get_metrics().snapshot()["counters"]
        assert requests["completed"] == 12
        assert counters["serve.submitted"] == requests["submitted"]
        assert counters["serve.completed"] == requests["completed"]

    @pytest.mark.skipif(numba_available(), reason="jit does not fall back")
    def test_pool_jit_fallbacks_match_in_process(self):
        obs.enable_metrics()
        assert _sparta_jit_fallbacks(parallel=2) == 4
        get_metrics().reset()
        assert _sparta_jit_fallbacks() == 4

    @pytest.mark.skipif(numba_available(), reason="jit does not fall back")
    def test_traced_warm_cache_hit_merges_no_metrics(self, tmp_path):
        obs.enable()
        cache = str(tmp_path / "cache.json")
        assert _sparta_jit_fallbacks(parallel=2, cache=cache) == 4
        # A fresh service re-derives the same trace ids, so every hit
        # replays its cached record's spans -- but never metrics.
        assert _sparta_jit_fallbacks(parallel=2, cache=cache) == 4
        names = [span["name"] for span in get_tracer().spans()]
        assert names.count("worker") == 8
        with open(cache, encoding="utf-8") as fh:
            records = json.load(fh).values()
        assert all(
            record["__obs__"] and "metrics" not in record
            for record in records
        )

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_every_mode_counts_each_metric_once(self, mode):
        obs.enable()
        with ParallelEvaluator(max_workers=2, mode=mode) as engine:
            assert engine.map(_count_call, range(6)) == list(range(6))
        assert get_metrics().snapshot()["counters"]["test.calls"] == 6


# ------------------------------------------------------------- recorder


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=3)
        for _ in range(7):
            recorder.sample()
        assert len(recorder) == 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValidationError):
            FlightRecorder(interval_s=0.0)

    def test_sources_are_prefixed_and_fault_isolated(self):
        recorder = FlightRecorder()
        recorder.add_source("svc", lambda: {"depth": 4})
        recorder.add_source(
            "broken", lambda: (_ for _ in ()).throw(RuntimeError())
        )
        sample = recorder.sample()
        assert sample["gauges"]["svc.depth"] == 4.0
        assert not any(
            key.startswith("broken.") for key in sample["gauges"]
        )

    def test_samples_carry_registry_metrics(self):
        registry = get_metrics()
        registry.enable()
        registry.inc("serve.completed", 5)
        registry.observe("serve.latency_s", 0.01)
        sample = FlightRecorder().sample()
        assert sample["counters"]["serve.completed"] == 5
        assert "serve.latency_s" in sample["histograms"]

    def test_dump_takes_fresh_sample_first(self):
        recorder = FlightRecorder()
        tick = {"value": 0.0}
        recorder.add_source("live", lambda: {"v": tick["value"]})
        recorder.sample()
        tick["value"] = 9.0
        dump = recorder.dump("manual", detail="x")
        assert dump["reason"] == "manual"
        assert dump["fields"] == {"detail": "x"}
        # The freshest ring entry reflects state at the dump instant.
        assert dump["samples"][-1]["gauges"]["live.v"] == 9.0
        assert recorder.dumps[0]["reason"] == "manual"

    def test_ledger_watcher_triggers_dump_and_stop_unhooks(self):
        ledger = get_ledger()
        ledger.enable()
        recorder = FlightRecorder()
        recorder.watch_ledger()
        ledger.event("request.admitted")  # not a dump trigger
        assert recorder.dumps == []
        ledger.event("shard.killed", shard=1)
        dumps = recorder.dumps
        assert len(dumps) == 1
        assert dumps[0]["reason"] == "ledger:shard.killed"
        assert dumps[0]["fields"]["shard"] == 1
        recorder.stop()
        ledger.event("shard.killed", shard=0)
        assert len(recorder.dumps) == 1

    def test_dump_emits_no_ledger_events(self):
        ledger = get_ledger()
        ledger.enable()
        recorder = FlightRecorder()
        recorder.watch_ledger()
        ledger.event("shard.down", shard=0, cause="test")
        events = [e["event"] for e in ledger.events()]
        assert events == ["shard.down"]
        recorder.stop()

    def test_sampler_thread_collects(self):
        recorder = FlightRecorder(interval_s=0.01)
        recorder.start()
        deadline = time.time() + 2.0
        while len(recorder) < 2 and time.time() < deadline:
            time.sleep(0.01)
        recorder.stop()
        assert len(recorder) >= 2

    def test_export_jsonl_round_trip(self, tmp_path):
        recorder = FlightRecorder()
        recorder.add_source("svc", lambda: {"depth": 2})
        recorder.sample()
        recorder.dump("test-dump")
        path = str(tmp_path / "flight.jsonl")
        lines = recorder.export_jsonl(path)
        assert lines == len(recorder.samples()) + 1
        loaded = load_flight_jsonl(path)
        assert loaded["samples"] == recorder.samples()
        assert loaded["dumps"][0]["reason"] == "test-dump"


# ------------------------------------------------------------------- slo


def _sample(ts, completed=0, failed=0, rejected=0, cache_hits=0,
            computed=0, latencies=()):
    """Synthetic cumulative recorder sample."""
    bounds = [0.01, 0.1, 1.0]
    counts = [0, 0, 0, 0]
    for value in latencies:
        for i, bound in enumerate(bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return {
        "ts": ts,
        "counters": {
            "serve.completed": completed,
            "serve.failed": failed,
            "serve.rejected": rejected,
            "serve.cache_hits": cache_hits,
            "serve.computed": computed,
        },
        "gauges": {},
        "histograms": {
            "serve.latency_s": {
                "bounds": bounds,
                "counts": counts,
                "count": sum(counts),
            }
        },
    }


class TestSLO:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SLOSpec(name="x", objective="nope", target=0.1)
        with pytest.raises(ValidationError):
            SLOSpec(name="x", objective="error_rate", target=0.0)
        with pytest.raises(ValidationError):
            SLOSpec(
                name="x", objective="availability", target=0.9,
                windows=(),
            )
        with pytest.raises(ValidationError):
            SLOEvaluator([
                SLOSpec(name="a", objective="error_rate", target=0.1),
                SLOSpec(name="a", objective="error_rate", target=0.2),
            ])

    def test_spec_json_round_trip(self):
        spec = SLOSpec(
            name="p99", objective="p99_latency", target=0.05,
            windows=(2.0, 10.0), burn_threshold=2.0,
            workload=WORKLOAD,
        )
        assert SLOSpec.from_json(spec.to_json()) == spec

    def test_error_rate_breach_and_recovery_emit_transitions(self):
        ledger = get_ledger()
        ledger.enable()
        spec = SLOSpec(
            name="errors", objective="error_rate", target=0.1,
            windows=(1.0, 5.0),
        )
        evaluator = SLOEvaluator([spec])
        # 50% failures across both windows: burning 5x budget.
        burning = [
            _sample(0.0),
            _sample(4.5, completed=10, failed=10),
            _sample(5.0, completed=20, failed=20),
        ]
        (status,) = evaluator.evaluate(burning)
        assert status["state"] == "breached"
        assert evaluator.breached() == ["errors"]
        # Second evaluation in the same state: no duplicate event.
        evaluator.evaluate(burning)
        # Errors stop: rates fall to zero in every window.
        recovered = [
            _sample(10.0, completed=40, failed=20),
            _sample(14.5, completed=80, failed=20),
            _sample(15.0, completed=90, failed=20),
        ]
        (status,) = evaluator.evaluate(recovered)
        assert status["state"] == "ok"
        events = [e["event"] for e in ledger.events()]
        assert events == ["slo.breach", "slo.recovered"]

    def test_short_window_spike_alone_does_not_breach(self):
        spec = SLOSpec(
            name="errors", objective="error_rate", target=0.1,
            windows=(1.0, 10.0),
        )
        # Long window healthy (2% errors), last second terrible.
        samples = [
            _sample(0.0),
            _sample(9.0, completed=980, failed=20),
            _sample(10.0, completed=980, failed=30),
        ]
        (status,) = evaluate_slos([spec], samples)
        assert status["windows"][1.0]["burn"] > 1.0
        assert status["windows"][10.0]["burn"] < 1.0
        assert status["state"] == "ok"

    def test_p99_latency_burn_from_histogram_deltas(self):
        spec = SLOSpec(
            name="p99", objective="p99_latency", target=0.1,
            windows=(1.0, 5.0),
        )
        # Window deltas: half the requests land in the overflow
        # buckets above the 100 ms target -> burning 50x the 1% budget.
        slow = [
            _sample(0.0),
            _sample(4.5, completed=8, latencies=[0.005] * 8),
            _sample(
                5.0, completed=16,
                latencies=[0.005] * 8 + [0.5] * 8,
            ),
        ]
        (status,) = evaluate_slos([spec], slow)
        assert status["state"] == "breached"
        assert status["windows"][5.0]["burn"] == pytest.approx(50.0)
        fast = [
            _sample(0.0),
            _sample(5.0, completed=16, latencies=[0.005] * 16),
        ]
        (status,) = evaluate_slos([spec], fast)
        assert status["state"] == "ok"

    def test_availability_and_cache_hit_objectives(self):
        specs = [
            SLOSpec(
                name="avail", objective="availability", target=0.9,
                windows=(5.0,),
            ),
            SLOSpec(
                name="cache", objective="cache_hit", target=0.5,
                windows=(5.0,), burn_threshold=0.5,
            ),
        ]
        samples = [
            _sample(0.0),
            _sample(
                5.0, completed=50, failed=25, rejected=25,
                cache_hits=10, computed=90,
            ),
        ]
        avail, cache = evaluate_slos(specs, samples)
        assert avail["state"] == "breached"  # 50% << 90% target
        # Hit rate 10% against the 50% floor burns 0.8x the budget,
        # past this spec's 0.5 threshold.
        assert cache["state"] == "breached"
        assert avail["windows"][5.0]["value"] == pytest.approx(0.5)
        assert cache["windows"][5.0]["value"] == pytest.approx(0.1)
        assert cache["windows"][5.0]["burn"] == pytest.approx(0.8)

    def test_breach_trips_cluster_breaker_and_recovery_closes(self):
        get_ledger().enable()
        cluster = ShardCluster(
            num_shards=2, supervise=False, breaker_recovery_s=0.05
        )
        try:
            spec = SLOSpec(
                name="errors", objective="error_rate", target=0.1,
                windows=(1.0,), workload=WORKLOAD,
            )
            evaluator = SLOEvaluator([spec], cluster=cluster)
            evaluator.evaluate(
                [_sample(0.0), _sample(1.0, completed=5, failed=5)]
            )
            breaker = cluster.breaker(WORKLOAD)
            assert breaker.state == "open"
            with pytest.raises(Exception):
                cluster.submit_request(_requests(1)[0])
            # The breaker's own recovery window governs re-admission:
            # once it half-opens, the SLO recovery's recorded success
            # closes it.
            time.sleep(0.1)
            assert breaker.state == "half_open"
            evaluator.evaluate(
                [_sample(10.0), _sample(11.0, completed=50)]
            )
            assert breaker.state == "closed"
            assert evaluator.breached() == []
        finally:
            cluster.shutdown()

    def test_bucket_fraction_above(self):
        bounds = [0.01, 0.1, 1.0]
        counts = [5, 5, 0, 10]
        # Overflow bucket entirely above 0.5; half of nothing else.
        assert bucket_fraction_above(
            bounds, counts, 0.5
        ) == pytest.approx(0.5)
        assert bucket_fraction_above(bounds, counts, 0.0) == 1.0
        assert bucket_fraction_above([0.1], [0, 0], 0.05) == 0.0


# ----------------------------------------------------------- critical path


def _span(name, trace_id, span_id, parent_id, duration,
          attributes=None):
    return {
        "name": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "duration_s": duration,
        "status": "ok",
        "attributes": attributes or {},
        "volatile": {},
    }


def _synthetic_request(trace_id, *, total=1.0, wait=0.2, batch=0.6,
                       eval_s=0.5, transport=0.05, request=0.85):
    return [
        _span("cluster.request", trace_id, "c1", "", total,
              {"workload": WORKLOAD}),
        _span("transport.encode", trace_id, "tx", "c1", transport),
        _span("request", trace_id, "r1", "c1", request,
              {"workload": WORKLOAD}),
        _span("queue.wait", trace_id, "q1", "r1", wait),
        _span("batch", trace_id, "b1", "r1", batch),
        _span("worker", trace_id, "w1", "b1", eval_s),
    ]


class TestCriticalPath:
    def test_breakdown_phases(self):
        breakdown = trace_breakdown(_synthetic_request("t1"))
        phases = breakdown["phases"]
        assert breakdown["workload"] == WORKLOAD
        assert phases["admission_wait"] == pytest.approx(0.2)
        assert phases["eval"] == pytest.approx(0.5)
        assert phases["batch_wait"] == pytest.approx(0.1)
        assert phases["transport"] == pytest.approx(0.05)
        assert phases["route_merge"] == pytest.approx(0.15)
        assert breakdown["total_s"] == pytest.approx(1.0)
        # Every second accounted: 0.2 + 0.1 + 0.5 + 0.05 + 0.15 = 1.0.
        assert phases["other"] == pytest.approx(0.0, abs=1e-9)

    def test_direct_request_without_cluster_root(self):
        records = _synthetic_request("t1")[2:]  # drop router + encode
        breakdown = trace_breakdown(records)
        assert breakdown["phases"]["route_merge"] == 0.0
        assert breakdown["total_s"] == pytest.approx(0.85)

    def test_campaign_trace_yields_one_breakdown_per_request(self):
        records = []
        records.append(
            _span("campaign", "t", "camp", "", 5.0)
        )
        records.append(
            _span("campaign.layer", "t", "layer", "camp", 4.0)
        )
        for i in range(3):
            sub = _synthetic_request("t")
            for record in sub:
                record["span_id"] = f"{record['span_id']}-{i}"
                if record["name"] == "cluster.request":
                    record["parent_id"] = "layer"
                elif record["parent_id"]:
                    record["parent_id"] = f"{record['parent_id']}-{i}"
            records.extend(sub)
        breakdowns = request_breakdowns(records)
        assert len(breakdowns) == 3

    def test_report_orders_slowest_first_and_aggregates(self):
        records = _synthetic_request("a", total=1.0) + \
            _synthetic_request("b", total=3.0) + \
            _synthetic_request("c", total=2.0)
        report = critical_path_report(records, top=2)
        assert report["requests"] == 3
        assert [e["trace_id"] for e in report["top"]] == ["b", "c"]
        assert report["phase_means_s"]["eval"] == pytest.approx(0.5)

    def test_compare_reports_names_culprit(self):
        base = critical_path_report(_synthetic_request("a"))
        regressed = critical_path_report(
            _synthetic_request("a", total=2.0, eval_s=1.5)
        )
        diff = compare_reports(base, regressed)
        assert diff["culprit"] == "eval"
        assert diff["phase_deltas_s"]["eval"] == pytest.approx(1.0)
        assert diff["ranked"][0]["phase"] == "eval"
        same = compare_reports(base, base)
        assert same["culprit"] is None

    def test_live_cluster_trace_decomposes(self):
        _, spans = _serve_cluster("inproc", count=3)
        report = critical_path_report(spans, top=3)
        assert report["requests"] == 3
        top = report["top"][0]
        assert top["workload"] == WORKLOAD
        assert top["total_s"] > 0.0
        assert top["phases"]["eval"] >= 0.0
        assert set(top["phases"]) == set(PHASES)


# ------------------------------------------------------------- prometheus


class TestPrometheusText:
    def test_exposition_covers_all_metric_kinds(self):
        registry = get_metrics()
        registry.enable()
        registry.inc("serve.completed", 3)
        registry.set_gauge("serve.queue_depth", 2)
        registry.observe("serve.latency_s", 0.02)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE serve_completed counter" in text
        assert "serve_completed 3" in text
        assert "serve_queue_depth 2" in text
        assert "# TYPE serve_latency_s histogram" in text
        assert 'serve_latency_s_bucket{le="+Inf"} 1' in text
        assert "serve_latency_s_count 1" in text


# ---------------------------------------------------------------- chaos


class TestObsUnderChaos:
    def test_crash_dump_and_stitched_traces_survive_a_kill(self):
        requests = _requests(8)

        def campaign(policy, recorder):
            get_tracer().reset()
            get_ledger().reset()
            get_metrics().reset()
            obs.enable()
            results, report = run_chaos_campaign(
                requests,
                policy,
                num_shards=2,
                batch_size=4,
                supervise=False,
                recorder=recorder,
            )
            canonical = get_tracer().canonical_json()
            obs.disable()
            return results, report, canonical

        recorder = FlightRecorder(interval_s=0.01)
        policy = ChaosPolicy.kill_shard(4, 0)
        results, report, canonical_kill = campaign(policy, recorder)
        assert report["lost"] == 0
        assert report["restarts"] >= 1
        assert all(r is not None and r.ok for r in results)

        # The kill produced at least one automatic flight dump whose
        # fresh final sample still carries the killed shard's gauges.
        dumps = recorder.dumps
        assert dumps
        assert any("shard.down" in d["reason"] for d in dumps) or any(
            "shard.killed" in d["reason"] for d in dumps
        )
        last_sample = dumps[0]["samples"][-1]
        assert "cluster.shard0.alive" in last_sample["gauges"]
        assert "cluster.shard1.alive" in last_sample["gauges"]

        # Fault-free rerun: byte-identical stitched traces (replays
        # re-derive the same span ids; partial attempts vanish).
        _, report_clean, canonical_clean = campaign(
            ChaosPolicy(), None
        )
        assert report_clean["restarts"] == 0
        assert canonical_kill == canonical_clean


# ------------------------------------------------------------------- cli


class TestObsCli:
    def _serve(self, tmp_path, capsys):
        from repro.cli import main

        trace_dir = str(tmp_path / "obs")
        assert main([
            "serve", "--workload", WORKLOAD, "--num-requests", "6",
            "--trace-dir", trace_dir,
        ]) == 0
        capsys.readouterr()
        return trace_dir

    def test_serve_exports_flight_and_metrics(self, tmp_path, capsys):
        trace_dir = self._serve(tmp_path, capsys)
        for name in (
            "trace.jsonl", "ledger.jsonl", "trace.chrome.json",
            "metrics.json", "flight.jsonl",
        ):
            assert os.path.exists(os.path.join(trace_dir, name))

    def test_top_slo_critical_path_verbs(self, tmp_path, capsys):
        from repro.cli import main

        trace_dir = self._serve(tmp_path, capsys)
        assert main(["obs", "top", "--trace-dir", trace_dir]) == 0
        out = capsys.readouterr().out
        assert "requests: 6" in out
        assert "phase means" in out

        assert main(["obs", "slo", "--trace-dir", trace_dir]) == 0
        out = capsys.readouterr().out
        assert "latency-p99" in out
        assert "availability" in out

        assert main(
            ["obs", "critical-path", "--trace-dir", trace_dir,
             "--baseline", trace_dir]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requests"] == 6
        assert report["vs_baseline"]["total_delta_s"] == 0.0

    def test_prom_export(self, tmp_path, capsys):
        from repro.cli import main

        trace_dir = self._serve(tmp_path, capsys)
        assert main(
            ["obs", "export", "--format", "prom",
             "--trace-dir", trace_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE serve_completed counter" in out
        assert "serve_completed 6" in out

    def test_corrupt_trace_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        trace_dir = self._serve(tmp_path, capsys)
        with open(
            os.path.join(trace_dir, "trace.jsonl"), "a",
            encoding="utf-8",
        ) as fh:
            fh.write("{not json\n")
        assert main(["obs", "summary", "--trace-dir", trace_dir]) == 1
        err = capsys.readouterr().err
        assert "cannot read trace" in err
        assert "Traceback" not in err

    def test_missing_flight_recording_is_clean(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["obs", "slo", "--trace-dir", str(tmp_path / "nope")]
        ) == 1
        err = capsys.readouterr().err
        assert "no flight recording" in err
