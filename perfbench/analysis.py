"""Per-layer metrics from one plain, one traced and one armed pass.

Each request's end-to-end interval is split among the layers whose
benchmark spans cover it (deepest span wins); time no span covers is
``trace.unattributed_share``.  Layer names follow the program's
modules: ``serve.service`` -> ``service``, ``serve.cluster`` ->
``cluster``, ``serve.procshard`` -> ``procshard``, ``exec.parallel`` ->
``exec``, ``exec.cache`` -> ``cache``, the ``repro.<subsystem>`` kernels
-> ``kernel``, ``campaign`` -> ``campaign``, and the benchmark's own
generator -> ``loadgen``.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Tuple

from measure import exclusive_times, mean, percentile

#: Registry workloads whose kernels the benchmark reports one by one.
KERNELS = ("axc-htconv", "dna-pipeline", "dse", "hls", "imc-crossbar",
           "sparta")
LAYERS = ("loadgen", "service", "cluster", "procshard", "exec", "cache",
          "kernel", "campaign")


def _maps(store) -> List[Dict[str, Any]]:
    return sorted(store.named("exec.map"), key=lambda s: s["start"])


def _map_children(store) -> Dict[int, List[Tuple[str, float, float]]]:
    """exec.map span id -> its cache and kernel child intervals."""
    out: Dict[int, List[Tuple[str, float, float]]] = {}
    for span in store.spans:
        if span["name"] in ("cache.get", "cache.put", "kernel") \
                and span["parent"] is not None:
            layer = "kernel" if span["name"] == "kernel" else "cache"
            out.setdefault(span["parent"], []).append(
                (layer, span["start"], span["end"]))
    return out


def _map_intervals(span, children) -> List[Tuple[str, float, float, int]]:
    out = [("exec", span["start"], span["end"], 2)]
    out += [(layer, s, e, 3) for layer, s, e in children.get(span["id"], [])]
    return out


def _exec_metrics(store, window_s: float, workers: int) -> Dict[str, float]:
    maps = _maps(store)
    gets = store.named("cache.get")
    puts = store.named("cache.put")
    hits = sum(1 for g in gets if g["hit"])
    tasks = sum(m["tasks"] for m in maps)
    deduped = sum(m["tasks"] - m["computed"] - m["hits"] for m in maps)
    overheads = []
    kernel_times: Dict[str, List[float]] = {k: [] for k in KERNELS}
    for m in maps:
        lanes = max(1, min(workers, m["computed"]))
        overheads.append(m["end"] - m["start"] - m["kernel_s"] / lanes)
        for workload, seconds in m["kernels"]:
            kernel_times.setdefault(workload, []).append(seconds)
    kernel_total = sum(m["kernel_s"] for m in maps)
    out = {
        "exec.maps": float(len(maps)),
        "exec.tasks_per_map": tasks / len(maps) if maps else 0.0,
        "exec.map_ms_p50": percentile(
            [m["end"] - m["start"] for m in maps], 50) * 1e3,
        "exec.dispatch_overhead_ms_per_map": mean(overheads) * 1e3,
        "exec.dedup_ratio": deduped / tasks if tasks else 0.0,
        "cache.hits": float(hits),
        "cache.misses": float(len(gets) - hits),
        "cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "cache.get_us_p50": percentile(
            [g["end"] - g["start"] for g in gets], 50) * 1e6,
        "cache.put_us_p50": percentile(
            [p["end"] - p["start"] for p in puts], 50) * 1e6,
        "kernel.busy_share": kernel_total / (workers * window_s),
    }
    for workload in KERNELS:
        times = kernel_times.get(workload, [])
        out[f"kernel.{workload}.ms_p50"] = percentile(times, 50) * 1e3
        out[f"kernel.{workload}.count"] = float(len(times))
    return out


def _shares(totals: Dict[str, float]) -> Dict[str, float]:
    whole = sum(totals.values())
    out = {
        f"self_share.{layer}": totals.get(layer, 0.0) / whole
        if whole else 0.0
        for layer in LAYERS
    }
    out["trace.unattributed_share"] = (
        totals.get("unattributed", 0.0) / whole if whole else 0.0
    )
    return out


def _requests(store) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """``(request span, submit-call span)`` pairs."""
    submits = {s["parent"]: s for s in store.spans
               if s["name"].endswith(".submit_request")}
    return [(r, submits[r["id"]]) for r in store.named("request")]


def _serve_attribution(traced) -> Dict[str, float]:
    store = traced["spans"]
    maps = _maps(store)
    children = _map_children(store)
    by_key: Dict[str, List[Tuple[float, int]]] = {}
    for index, span in enumerate(maps):
        for key in span["keys"]:
            by_key.setdefault(key, []).append((span["start"], index))
    totals: Dict[str, float] = {}
    for request, submit in _requests(store):
        due, done, digest = request["start"], request["end"], \
            request["digest"]
        s0, s1 = submit["start"], submit["end"]
        intervals = [("loadgen", due, s0, 1), ("service", s0, s1, 1)]
        starts = by_key.get(digest, [])
        pos = bisect.bisect_left(starts, (s0, -1))
        if pos < len(starts):
            span = maps[starts[pos][1]]
            intervals.append(("service", s1, span["start"], 1))
            intervals.append(("service", span["end"], done, 1))
            intervals += _map_intervals(span, children)
        for layer, seconds in exclusive_times((due, done),
                                              intervals).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return _shares(totals)


def _cluster_attribution(traced) -> Dict[str, float]:
    shards = traced["shards"]
    served = sum(s["requests"] for s in shards) or 1
    shard_latency = sum(s["latency_p50_s"] * s["requests"]
                        for s in shards) / served
    get_s = traced["cache_probe"]["get_us_p50"] * 1e-6
    totals: Dict[str, float] = {}
    for request, submit in _requests(traced["spans"]):
        s0, s1, done = submit["start"], submit["end"], request["end"]
        inner = max(s1, done - shard_latency)
        intervals = [
            ("cluster", s0, s1, 1),
            ("procshard", s1, done, 1),
            # Shard-side service time is a per-shard aggregate: the
            # benchmark cannot time inside the shard process.
            ("service", inner, done, 2),
            ("cache", inner, min(done, inner + get_s), 3),
        ]
        for layer, seconds in exclusive_times((s0, done),
                                              intervals).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return _shares(totals)


def _campaign_attribution(traced) -> Dict[str, float]:
    store = traced["spans"]
    maps = _maps(store)
    children = _map_children(store)
    totals: Dict[str, float] = {}
    for run in store.named("campaign.run"):
        t0, t1 = run["start"], run["end"]
        intervals = [("campaign", t0, t1, 1)]
        for span in maps:
            if span["start"] >= t0 and span["end"] <= t1:
                intervals += _map_intervals(span, children)
        for layer, seconds in exclusive_times((t0, t1), intervals).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return _shares(totals)


def _census_metrics(census: Dict[str, Any]) -> Dict[str, float]:
    out = {
        "census.distinct_digests": float(census["distinct_digests"]),
        "census.repeat_share": float(census["repeat_share"]),
        "exec.shm_tasks": float(census["shm_tasks"]),
    }
    for workload in KERNELS:
        out[f"census.requests.{workload}"] = float(
            census["requests_per_workload"].get(workload, 0))
    return out


def _overhead(workload: str, base, other) -> float:
    """Fractional slowdown of *other* relative to *base* on the
    workload's headline metric (positive = slower)."""
    if workload == "serve-mixed-open":
        return other["e2e"]["latency_p50_ms"] / base["e2e"][
            "latency_p50_ms"] - 1.0
    if workload == "cluster-warm-closed":
        return base["e2e"]["throughput_rps"] / other["e2e"][
            "throughput_rps"] - 1.0
    return base["e2e"]["cells_per_s"] / other["e2e"]["cells_per_s"] - 1.0


def layer_metrics(workload: str, plain, traced, armed) -> Dict[str, float]:
    """Every per-layer metric for *workload*; a layer that is not on
    the workload's path reports 0."""
    zero_service = {
        "service.queue_wait_p50_ms": 0.0,
        "service.batch_occupancy_mean": 0.0,
        "service.batches": 0.0,
        "service.submit_us_p50": 0.0,
    }
    zero_cluster = {
        "cluster.route_transport_ms_p50": 0.0,
        "cluster.shard_skew": 0.0,
        "cluster.restarts": 0.0,
    }
    zero_campaign = {"campaign.overhead_share": 0.0, "campaign.layers": 0.0}
    out: Dict[str, float] = {}
    if workload == "serve-mixed-open":
        service = traced["service"]
        out.update({
            "service.queue_wait_p50_ms": service["queue_wait_p50_ms"],
            "service.batch_occupancy_mean": service["batch_occupancy_mean"],
            "service.batches": float(service["batches"]),
            "service.submit_us_p50": service["submit_us_p50"],
        })
        out.update(zero_cluster)
        out.update(zero_campaign)
        out.update(_exec_metrics(traced["spans"], traced["window_s"],
                                 traced["workers"]))
        out.update(_serve_attribution(traced))
        out["loadgen.lateness_p99_ms"] = traced["generator"]["p99_ms"]
    elif workload == "cluster-warm-closed":
        shards = traced["shards"]
        served = sum(s["requests"] for s in shards)
        batches = sum(s["batches"] for s in shards)
        occupancy = (sum(s["batches"] * s["occupancy"] for s in shards)
                     / batches if batches else 0.0)
        hits = sum(s["hits"] for s in shards)
        misses = sum(s["misses"] for s in shards)
        deduped = sum(s["deduped"] for s in shards)
        shard_p50 = sum(s["latency_p50_s"] * s["requests"]
                        for s in shards) / max(1, served)
        out.update({
            "service.queue_wait_p50_ms": sum(
                s["queue_wait_p50_s"] * s["requests"] for s in shards
            ) / max(1, served) * 1e3,
            "service.batch_occupancy_mean": occupancy,
            "service.batches": float(batches),
            "service.submit_us_p50": traced["submit_us_p50"],
            "cluster.route_transport_ms_p50":
                traced["e2e"]["latency_p50_ms"] - shard_p50 * 1e3,
            "cluster.shard_skew": (
                max(s["requests"] for s in shards)
                / (served / len(shards)) if served else 0.0
            ),
            "cluster.restarts": float(traced["restarts"]),
            # One map per shard batch; the maps run inside the shard
            # processes, so only their counts are observable here.
            "exec.maps": float(batches),
            "exec.tasks_per_map": occupancy,
            "exec.map_ms_p50": 0.0,
            "exec.dispatch_overhead_ms_per_map": 0.0,
            "exec.dedup_ratio": deduped / served if served else 0.0,
            "cache.hits": float(hits),
            "cache.misses": float(misses),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses
            else 0.0,
            "cache.get_us_p50": traced["cache_probe"]["get_us_p50"],
            "cache.put_us_p50": 0.0,
            # The pass is invalid unless the shards' own counters show
            # no miss and no computed evaluation in the window, so no
            # kernel ran on this path.
            "kernel.busy_share": 0.0,
        })
        for name in KERNELS:
            out[f"kernel.{name}.ms_p50"] = 0.0
            out[f"kernel.{name}.count"] = 0.0
        out.update(zero_campaign)
        out.update(_cluster_attribution(traced))
        out["loadgen.lateness_p99_ms"] = 0.0
    else:
        out.update(zero_service)
        out.update(zero_cluster)
        out.update(_exec_metrics(traced["spans"], traced["window_s"],
                                 traced["workers"]))
        runs = traced["spans"].named("campaign.run")
        run_total = sum(r["end"] - r["start"] for r in runs)
        map_total = sum(m["end"] - m["start"]
                        for m in traced["spans"].named("exec.map"))
        out["campaign.overhead_share"] = (
            (run_total - map_total) / run_total if run_total else 0.0)
        out["campaign.layers"] = float(traced["layers"])
        out.update(_campaign_attribution(traced))
        out["loadgen.lateness_p99_ms"] = 0.0
    out.update(_census_metrics(traced["census"]))
    out["obs.armed_overhead"] = _overhead(workload, plain, armed)
    out["trace.overhead"] = _overhead(workload, plain, traced)
    return out
