"""The three benchmark workloads, each run as one *pass*.

A pass sets the system up (several times, reporting the median set-up
time), drives its traffic for the measured window, checks every output
against a serial direct-``evaluate`` reference built before the window,
and returns raw measurements.  ``mode`` selects what else runs:

- ``"plain"``: nothing else -- the end-to-end pass;
- ``"traced"``: benchmark-side spans around the layer calls
  (:mod:`probes`), for per-layer attribution;
- ``"armed"``: the program's own ``repro.obs`` tracing, metrics and
  ledger switched on, to price them.
"""

from __future__ import annotations

import os
import shutil
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.campaign import CampaignGraph, GraphRunner, ReduceNode
from repro.campaign.graph import run_named_reduce
from repro.core.api import RunResult, get_workload
from repro.exec import ParallelEvaluator, ResultCache
from repro.serve import EvalRequest, EvaluationService
from repro.serve.cluster import ShardCluster

import traffic
from loops import LoopResult, Sent, closed_loop, open_loop
from measure import (SpanStore, median, now, peak_live_tree_mb,
                     peak_tree_mb, percentile, reset_peak_rss,
                     tail_percentile)
from probes import MapProbe

WORKERS = 2

#: serve-mixed-open: offered rate, latency limit, service shape.
SERVE_RATE_RPS = 60.0
SERVE_SLO_S = 0.025
SERVE_SETUPS = 15

#: cluster-warm-closed: closed-loop clients, latency limit, shape.  The
#: batch window is ShardCluster's default 5 ms: every request waits it
#: out (2 clients never fill a batch of 8), so the 2 cores are not
#: saturated and host CPU-speed swings are not amplified by contention.
CLUSTER_SHARDS = 2
CLUSTER_CLIENTS = 2
CLUSTER_SLO_S = 0.025
CLUSTER_SETUPS = 5
CLUSTER_BATCH_WAIT_S = 0.005

#: campaign-cold: per-run latency limit.
CAMPAIGN_SLO_S = 5.0


# ------------------------------------------------------------ correctness


def reference_results(requests: List[EvalRequest]) -> Dict[str, str]:
    """Digest -> canonical JSON of a serial, direct ``evaluate``."""
    out: Dict[str, str] = {}
    for request in requests:
        digest = request.digest
        if digest not in out:
            out[digest] = get_workload(request.workload).evaluate(
                dict(request.config), seed=request.seed,
                impl=request.impl,
            ).canonical_json()
    return out


def _outcome(sent: Sent, digest: str, reference: Dict[str, str]) -> str:
    """``ok``, or why the request failed: rejected, lost (never
    resolved or raised), error (an error result) or mismatch (differs
    from the reference)."""
    if sent.rejected is not None:
        return "rejected"
    future: Future = sent.future
    if not future.done() or future.exception() is not None:
        return "lost"
    result: RunResult = future.result()
    if not result.ok:
        return "error"
    if result.canonical_json() != reference[digest]:
        return "mismatch"
    return "ok"


def _check(run: LoopResult) -> Dict[str, int]:
    """Outcome counts; everything but ``ok`` is a failure."""
    counts = {"ok": 0, "mismatch": 0, "error": 0, "rejected": 0,
              "lost": 0}
    for sent in run.sent:
        counts[sent.outcome] += 1
    counts["checked"] = counts["ok"] + counts["mismatch"] + counts["error"]
    return counts


def _quantiles(latencies: List[float]) -> Dict[str, float]:
    """Latency summary in ms, with the sample count and the highest
    percentile that has at least ten samples beyond it."""
    out = {f"p{q:g}": percentile(latencies, q) * 1e3
           for q in (50, 90, 95, 99, 100)}
    tail = tail_percentile(len(latencies))
    out.update(count=len(latencies), tail_percentile=tail,
               tail_ms=percentile(latencies, tail) * 1e3)
    return out


def _per_second(stamps: List[float], start: float, end: float
                ) -> List[float]:
    """Completions in each whole second of ``[start, end)``."""
    bins = [0.0] * max(1, int(end - start))
    for stamp in stamps:
        slot = int(stamp - start)
        if 0 <= slot < len(bins):
            bins[slot] += 1
    return bins


def _failed(counts: Dict[str, int]) -> int:
    return (counts["mismatch"] + counts["error"] + counts["rejected"]
            + counts["lost"])


def _census(stream: List[EvalRequest], digests: List[str]) -> Dict[str, Any]:
    per_workload: Dict[str, int] = {}
    for request in stream:
        per_workload[request.workload] = per_workload.get(
            request.workload, 0) + 1
    distinct = len(set(digests))
    return {
        "requests": len(stream),
        "requests_per_workload": dict(sorted(per_workload.items())),
        "distinct_digests": distinct,
        "repeat_share": 1.0 - distinct / len(stream) if stream else 0.0,
    }


def _request_spans(store: SpanStore, run: LoopResult, submit: str) -> None:
    """One ``request`` span per request sent (due time to the done
    callback) with its submit call as a child, sharing the request id."""
    for sent in run.sent:
        if sent.done is None:
            continue
        root = store.add("request", sent.due, sent.done, rid=sent.index,
                         digest=sent.request.digest)
        store.add(submit, sent.submit_start, sent.submit_end, parent=root,
                  rid=sent.index)


class _Obs:
    """Arms ``repro.obs`` for the ``armed`` mode, and always leaves it
    off and empty afterwards."""

    def __init__(self, mode: str) -> None:
        self.armed = mode == "armed"

    def __enter__(self) -> "_Obs":
        if self.armed:
            obs.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        obs.disable()
        obs.get_tracer().reset()
        obs.get_ledger().reset()
        obs.get_metrics().reset()


def _delta_batches(before: Dict[str, Any], after: Dict[str, Any]
                   ) -> Tuple[int, float]:
    """Batches and mean occupancy between two service snapshots."""
    count = after["batches"]["count"] - before["batches"]["count"]
    total = (after["batches"]["mean_occupancy"] * after["batches"]["count"]
             - before["batches"]["mean_occupancy"]
             * before["batches"]["count"])
    return count, (total / count if count else 0.0)


# ------------------------------------------------------- serve-mixed-open


def _serve_setup(rep: int) -> Tuple[EvaluationService, ParallelEvaluator]:
    evaluator = ParallelEvaluator(max_workers=WORKERS, mode="process",
                                  cache=ResultCache())
    service = EvaluationService(batch_size=8, batch_wait_s=0.005,
                                max_queue=1024, parallel=evaluator)
    warm = EvalRequest(workload="hls", config={"kernel": "dot", "size": 64},
                       seed=-1 - rep)
    service.submit_request(warm).result(timeout=60)
    return service, evaluator


def serve_mixed_open(seed: int, seconds: float, mode: str,
                     scale: float = 1.0) -> Dict[str, Any]:
    period = traffic.SERVE_BURST / (SERVE_RATE_RPS * scale)
    bursts = max(1, int(seconds / period))
    hot, stream = traffic.serve_traffic(seed, bursts)
    offsets = [(i // traffic.SERVE_BURST) * period
               for i in range(len(stream))]
    digests = [request.digest for request in stream]
    reference = reference_results(hot + stream)
    store = SpanStore() if mode == "traced" else None
    reset_peak_rss()
    with _Obs(mode):
        setups: List[float] = []
        service = evaluator = None
        for rep in range(SERVE_SETUPS if scale >= 1 else 1):
            if service is not None:
                service.shutdown()
            t0 = now()
            service, evaluator = _serve_setup(rep)
            setups.append(now() - t0)
        for start in range(0, len(hot), traffic.SERVE_BURST):
            for future in [service.submit_request(r) for r in
                           hot[start:start + traffic.SERVE_BURST]]:
                future.result(timeout=60)
        if store is not None:
            MapProbe(store, evaluator)
        before = service.snapshot()
        shm_before = evaluator.shm_tasks
        try:
            run = open_loop(service.submit_request, stream, offsets)
            after = service.snapshot()
        finally:
            service.shutdown()
    for sent in run.sent:
        sent.outcome = _outcome(sent, digests[sent.index], reference)
    counts = _check(run)
    latencies = [s.done - s.due for s in run.sent if s.done is not None]
    window = max(s.done for s in run.sent if s.done is not None) - \
        run.started if latencies else seconds
    attempted = len(run.sent)
    failed = _failed(counts)
    within = sum(1 for s in run.sent
                 if s.outcome == "ok" and s.done is not None
                 and s.done - s.due <= SERVE_SLO_S)
    batches, occupancy = _delta_batches(before, after)
    census = _census(stream, digests)
    census["shm_tasks"] = evaluator.shm_tasks - shm_before
    census["tasks_per_batch"] = occupancy
    out = {
        "e2e": {
            "setup_s": median(setups),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "slo_attainment": within / attempted,
            "throughput_rps": (attempted - failed) / window,
            "cells_per_s": (attempted - failed) / window,
            "peak_rss_mb": peak_tree_mb(WORKERS),
        },
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "census": census,
        "samples": {"latency": len(latencies), "setups": len(setups)},
        "latency_ms": _quantiles(latencies),
        "generator": run.lateness_summary(),
        "invalid": ["generator fell behind"] if run.generator_behind
        else [],
        "service": {
            "batches": batches,
            "batch_occupancy_mean": occupancy,
            "queue_wait_p50_ms": after["queue_wait_s"]["p50"] * 1e3,
            "submit_us_p50": percentile(
                [s.submit_end - s.submit_start for s in run.sent], 50
            ) * 1e6,
        },
        "cache": after.get("cache", {}),
        "window_s": window,
        "workers": WORKERS,
    }
    if store is not None:
        _request_spans(store, run, "service.submit_request")
        out["spans"] = store
    return out


# ---------------------------------------------------- cluster-warm-closed


def _cluster(cache_path: str) -> ShardCluster:
    return ShardCluster(
        num_shards=CLUSTER_SHARDS, backend="process", cache=cache_path,
        batch_size=8,
        batch_wait_s=CLUSTER_BATCH_WAIT_S, max_queue=256,
    )


def cluster_warm_closed(seed: int, seconds: float, mode: str,
                        workdir: str, scale: float = 1.0
                        ) -> Dict[str, Any]:
    pool = traffic.cluster_pool(seed)
    reference = reference_results(pool)
    streams = traffic.cluster_streams(pool, seed, CLUSTER_CLIENTS, 50_000)
    digest_of = {id(request): request.digest for request in pool}
    cache_path = os.path.join(workdir, "cluster-cache.json")
    store = SpanStore() if mode == "traced" else None
    with _Obs(mode):
        # Warm every shard store with each distinct request once.
        warm = _cluster(cache_path)
        try:
            if not warm.wait_ready(60):
                raise RuntimeError("shards did not report ready")
            for future in [warm.submit_request(r, block=True) for r in pool]:
                future.result(timeout=120)
        finally:
            warm.shutdown()
        reset_peak_rss()
        setups: List[float] = []
        cluster: Optional[ShardCluster] = None
        try:
            for rep in range(CLUSTER_SETUPS if scale >= 1 else 1):
                if cluster is not None:
                    cluster.shutdown()
                t0 = now()
                cluster = _cluster(cache_path)
                if not cluster.wait_ready(60):
                    raise RuntimeError("shards did not report ready")
                cluster.submit_request(pool[rep % len(pool)],
                                       block=True).result(timeout=60)
                setups.append(now() - t0)
            before = cluster.snapshot()
            run = closed_loop(
                lambda r: cluster.submit_request(r, block=True),
                streams, seconds,
                lambda sent: _outcome(sent, digest_of[id(sent.request)],
                                      reference),
            )
            after = cluster.snapshot()
            restarts = cluster.restarts
            peak_mb = peak_live_tree_mb()
        finally:
            if cluster is not None:
                cluster.shutdown()
    counts = _check(run)
    latencies = [s.done - s.submit_start for s in run.sent
                 if s.done is not None]
    window = run.finished - run.started
    attempted = len(run.sent)
    failed = _failed(counts)
    within = sum(1 for s in run.sent
                 if s.outcome == "ok" and s.done is not None
                 and s.done - s.submit_start <= CLUSTER_SLO_S)
    keys = [digest_of[id(s.request)] for s in run.sent]
    median_rate = median(_per_second(
        [s.done for s in run.sent if s.done is not None], run.started,
        run.finished))
    census = _census([s.request for s in run.sent], keys)
    shards = []
    for b, a in zip(before["per_shard"], after["per_shard"]):
        batches, occupancy = _delta_batches(b, a)
        shards.append({
            "requests": a["requests"]["submitted"]
            - b["requests"]["submitted"],
            "batches": batches,
            "occupancy": occupancy,
            "latency_p50_s": a["latency_s"]["p50"],
            "queue_wait_p50_s": a["queue_wait_s"]["p50"],
            "hits": a["cache"]["hits"] - b["cache"]["hits"],
            "misses": a["cache"]["misses"] - b["cache"]["misses"],
            "computed": a["evaluations"]["computed"]
            - b["evaluations"]["computed"],
            "deduped": a["evaluations"]["deduped"]
            - b["evaluations"]["deduped"],
            "shm_tasks": a["evaluator"]["shm_tasks"],
        })
    census["shm_tasks"] = sum(s["shm_tasks"] for s in shards)
    # The workload's premise: every window request is a cache hit, so
    # no kernel runs.  A miss or a computed evaluation invalidates it.
    invalid = [
        f"{key} during the window"
        for key in ("misses", "computed") if sum(s[key] for s in shards)
    ]
    total_batches = sum(s["batches"] for s in shards)
    census["tasks_per_batch"] = (
        sum(s["batches"] * s["occupancy"] for s in shards) / total_batches
        if total_batches else 0.0
    )
    out = {
        "e2e": {
            "setup_s": median(setups),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "slo_attainment": within / attempted,
            "throughput_rps": median_rate,
            "cells_per_s": median_rate,
            "peak_rss_mb": peak_mb,
        },
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "census": census,
        "samples": {"latency": len(latencies), "setups": len(setups)},
        "latency_ms": _quantiles(latencies),
        "invalid": invalid,
        "shards": shards,
        "restarts": restarts,
        "submit_us_p50": percentile(
            [s.submit_end - s.submit_start for s in run.sent], 50) * 1e6,
        "window_s": window,
        "workers": WORKERS,
    }
    if store is not None:
        _request_spans(store, run, "cluster.submit_request")
        out["spans"] = store
        out["cache_probe"] = _replay_cache_reads(
            [f"{cache_path}.shard{i}" for i in range(CLUSTER_SHARDS)],
            keys[:4000],
        )
    return out


def _replay_cache_reads(paths: List[str], keys: List[str]
                        ) -> Dict[str, Any]:
    """Time ``ResultCache.get`` for the window's key stream against the
    shard stores: the shard-side read path runs in the shard processes,
    out of the benchmark's reach, so the same reads are replayed here on
    the same data."""
    caches = [ResultCache(path=p) for p in paths]
    times = []
    hits = 0
    for key in keys:
        cache = next((c for c in caches if key in c), caches[0])
        t0 = now()
        value = cache.get(key)
        times.append(now() - t0)
        hits += value is not None
    return {"get_us_p50": percentile(times, 50) * 1e6, "gets": len(keys),
            "hits": hits}


# ---------------------------------------------------------- campaign-cold


def _canonical(value: Any) -> Any:
    if isinstance(value, RunResult):
        return value.canonical_json()
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return repr(value)


def campaign_reference(graph) -> Dict[str, Any]:
    """Serial direct evaluation of every eval node, and every reduction
    folded over those results."""
    results: Dict[str, RunResult] = {}
    expected: Dict[str, Any] = {}
    for node in graph.nodes:
        if isinstance(node, ReduceNode):
            values = [results[d] for d in node.dependencies()]
            expected[node.name] = _canonical(
                run_named_reduce(node.op, node.params, values))
        else:
            result = get_workload(node.workload).evaluate(
                dict(node.config), seed=node.seed, impl=node.impl)
            results[node.name] = result
            expected[node.name] = result.canonical_json()
    return expected


def _campaign_setup(rep: int, setups: List[float]
                    ) -> Tuple[ParallelEvaluator, GraphRunner]:
    """Build the evaluator and runner and run the first warm campaign
    (one mid-cost SPARTA cell, which a one-task map evaluates in the
    coordinator); appends the time taken to *setups*."""
    t0 = now()
    evaluator = ParallelEvaluator(max_workers=WORKERS, mode="process",
                                  cache=ResultCache())
    runner = GraphRunner(parallel=evaluator)
    warm = CampaignGraph(name=f"warm-{rep}")
    warm.evaluate("warm", "sparta",
                  config=dict(traffic.CAMPAIGN_WARM_SPARTA),
                  seed=1_000_000 + rep)
    if not runner.run(warm).ok:
        raise RuntimeError("warm-up campaign failed")
    setups.append(now() - t0)
    return evaluator, runner


def campaign_cold(seed: int, seconds: float, mode: str,
                  scale: float = 1.0) -> Dict[str, Any]:
    graph = traffic.campaign_graph(seed)
    expected = campaign_reference(graph)
    cells = sum(1 for n in graph.nodes if not isinstance(n, ReduceNode))
    store = SpanStore() if mode == "traced" else None
    walls: List[Tuple[float, float]] = []
    counts = {"ok": 0, "mismatch": 0, "error": 0, "rejected": 0,
              "lost": 0, "checked": 0}
    reset_peak_rss()
    with _Obs(mode):
        setups: List[float] = []
        evaluator, runner = _campaign_setup(0, setups)
        probe = MapProbe(store, evaluator) if store is not None else None
        stop_at = now() + seconds
        shm_before = evaluator.shm_tasks
        while not walls or now() < stop_at:
            evaluator.cache = ResultCache()
            if probe is not None:
                probe.attach_cache(evaluator.cache)
            t0 = now()
            report = runner.run(graph)
            t1 = now()
            walls.append((t0, t1))
            if store is not None:
                store.add("campaign.run", t0, t1, rid=len(walls) - 1)
            for name, result in report.results.items():
                counts["checked"] += 1
                if not result.ok:
                    counts["error"] += 1
                elif _canonical(result.value) != expected[name]:
                    counts["mismatch"] += 1
                else:
                    counts["ok"] += 1
            if scale >= 1:
                # Set-up time is sampled once after every run, spread
                # over the window, so one moment's host speed does not
                # set it; the extra engines are discarded.
                _campaign_setup(len(walls), setups)
    durations = [t1 - t0 for t0, t1 in walls]
    total = sum(durations)
    attempted = len(walls) * len(graph)
    failed = _failed(counts)
    within = sum(1 for d in durations if d <= CAMPAIGN_SLO_S)
    # Medians over the window's runs, not totals: one run slowed by a
    # noisy neighbour then moves the figure by one rank, not its share.
    typical = median(durations)
    census = {
        "requests": cells * len(walls),
        "requests_per_workload": _per_workload(graph, len(walls)),
        "distinct_digests": cells,
        "repeat_share": 0.0,
        "shm_tasks": evaluator.shm_tasks - shm_before,
        "tasks_per_batch": float(cells),
    }
    out = {
        "e2e": {
            "setup_s": median(setups),
            "latency_p50_ms": typical * 1e3,
            "slo_attainment": within / len(walls),
            "throughput_rps": 1.0 / typical,
            "cells_per_s": cells / typical,
            "peak_rss_mb": peak_tree_mb(WORKERS),
        },
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "census": census,
        "samples": {"latency": len(durations), "setups": len(setups)},
        "invalid": [],
        "run_ms": _quantiles(durations),
        "runs": len(walls),
        "layers": len(graph.schedule()),
        "window_s": total,
        "workers": WORKERS,
    }
    if store is not None:
        out["spans"] = store
    return out


def _per_workload(graph, runs: int) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for node in graph.nodes:
        if not isinstance(node, ReduceNode):
            out[node.workload] = out.get(node.workload, 0) + runs
    return dict(sorted(out.items()))


def make_workdir(root: str) -> str:
    path = os.path.join(root, ".perfbench_out", f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
