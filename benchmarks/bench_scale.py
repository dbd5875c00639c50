"""Experiment SCALE: multi-core scaling of the process-backed cluster.

The scaling claim behind ``ShardCluster(backend="process")``: hosting
each shard in its own worker process buys real multi-core speedup
without giving up any serving guarantee.  The same workload stream is
served at 1, 2 and 4 shards; every run must stay **byte-identical**
(canonical form) to a serial baseline and complete **exactly once**
with zero supervised restarts, and on multi-core runners the 2- and
4-shard runs must beat the 1-shard run by a gated factor.  The
measured throughput, service-time p99 and efficiency curve then feed
:mod:`repro.serve.capacity`, so the emitted artifact doubles as the
input to ``repro capacity --from-report``.

Run standalone to emit the JSON artifact CI uploads::

    PYTHONPATH=src python benchmarks/bench_scale.py --quick \
        --out BENCH_scale.json

Acceptance targets (asserted with ``--check``, reported always):

- every shard count serves the full stream byte-identical to the
  serial baseline, exactly once, with zero restarts;
- scaling efficiency on hosts with >= 2 usable cores: speedup >= 1.6x
  at 2 shards and >= 2.5x at 4 shards (relaxed to 1.25x / 1.6x under
  ``--quick``); the gate is reported as skipped, not failed, when the
  host has fewer cores than shards;
- the embedded capacity report is sane: the lightest load is feasible,
  planned shard counts never decrease with load, costs are positive.
"""

import argparse
import json
import os
import sys
import time

from repro.core.api import get_workload
from repro.obs.stats import percentile
from repro.serve import generate_requests
from repro.serve.capacity import (
    CapacityModel,
    ShardCostModel,
    capacity_report,
)
from repro.serve.cluster import ShardCluster

WORKLOAD = "imc-crossbar"
FULL_REQUESTS = 96
QUICK_REQUESTS = 48
FULL_POOL = 24
QUICK_POOL = 16
SEED = 11
SHARD_COUNTS = (1, 2, 4)
BATCH_SIZE = 4
#: speedup gates vs the 1-shard cluster run, keyed by shard count.
FULL_GATES = {2: 1.6, 4: 2.5}
QUICK_GATES = {2: 1.25, 4: 1.6}
TARGET_P99_FACTOR = 5.0
LOAD_MULTIPLES = (0.5, 1.0, 2.0, 4.0, 8.0)


def _requests(num_requests, pool_size):
    workload = get_workload(WORKLOAD)
    # skew=0: uniform pool draw, so shards get comparable work and the
    # scaling measurement is not dominated by one hot shard.
    return generate_requests(
        workload,
        num_requests,
        pool_size=pool_size,
        skew=0.0,
        seed=SEED,
    )


def run_serial_baseline(requests):
    """Direct single-threaded evaluation: the ground-truth canonical
    results and the per-request service-time distribution."""
    workload = get_workload(WORKLOAD)
    canonical = {}
    service_times = []
    start = time.perf_counter()
    for request in requests:
        step = time.perf_counter()
        result = workload.evaluate(request.config, seed=request.seed)
        service_times.append(time.perf_counter() - step)
        expected = canonical.setdefault(
            request.digest, result.canonical_json()
        )
        if expected != result.canonical_json():
            raise AssertionError(
                f"serial evaluation is not deterministic for "
                f"{request.digest}"
            )
    elapsed = time.perf_counter() - start
    return {
        "elapsed_s": elapsed,
        "throughput_rps": len(requests) / elapsed,
        "service_p50_s": percentile(service_times, 50),
        "service_p99_s": percentile(service_times, 99),
        "canonical": canonical,
    }


def run_cluster_point(requests, num_shards):
    """One scaling point: a process-backed cluster at *num_shards*,
    burst-fed the full stream.  Spawn/import cost is excluded from the
    timing via ``wait_ready`` -- the gate measures serving, not
    interpreter start-up."""
    cluster = ShardCluster(
        num_shards=num_shards,
        backend="process",
        batch_size=BATCH_SIZE,
        max_queue=len(requests) + 1,
    )
    try:
        cluster.wait_ready()
        start = time.perf_counter()
        futures = [
            cluster.submit_request(request, block=True)
            for request in requests
        ]
        results = [future.result(timeout=300) for future in futures]
        elapsed = time.perf_counter() - start
        snapshot = cluster.snapshot()
    finally:
        cluster.shutdown()
    matched = sum(1 for r in results if r.status == "ok")
    latencies = [r.wall_time_s for r in results]
    return {
        "shards": num_shards,
        "elapsed_s": elapsed,
        "throughput_rps": len(requests) / elapsed,
        "completed": len(results),
        "ok": matched,
        "restarts": snapshot["restarts"],
        "replayed": snapshot["replayed"],
        "latency_s": {
            "p50": percentile(latencies, 50),
            "p99": percentile(latencies, 99),
        },
        "results": results,
    }


def _identical(requests, results, canonical):
    matched = sum(
        1
        for request, result in zip(requests, results)
        if result is not None
        and result.canonical_json() == canonical[request.digest]
    )
    return matched == len(requests), matched


def run_scale_study(num_requests, pool_size, gates):
    requests = _requests(num_requests, pool_size)
    serial = run_serial_baseline(requests)
    usable_cpus = os.cpu_count() or 1

    points = []
    base_elapsed = None
    for num_shards in SHARD_COUNTS:
        point = run_cluster_point(requests, num_shards)
        results = point.pop("results")
        identical, matched = _identical(
            requests, results, serial["canonical"]
        )
        point["identical_to_serial"] = identical
        point["matched"] = matched
        if num_shards == 1:
            base_elapsed = point["elapsed_s"]
        point["speedup_vs_1shard"] = (
            base_elapsed / point["elapsed_s"] if base_elapsed else None
        )
        point["efficiency"] = (
            point["speedup_vs_1shard"] / num_shards
            if point["speedup_vs_1shard"]
            else None
        )
        gate = gates.get(num_shards)
        point["gate"] = {
            "required_speedup": gate,
            "usable_cpus": usable_cpus,
            # A host with fewer cores than shards cannot demonstrate
            # the full speedup; the gate is skipped there, never faked.
            "applicable": gate is not None
            and usable_cpus >= num_shards,
        }
        points.append(point)

    one_shard = points[0]
    efficiency = {
        p["shards"]: p["efficiency"]
        for p in points
        if p["efficiency"] and p["shards"] > 1
    }
    model = CapacityModel(
        one_shard["throughput_rps"],
        serial["service_p99_s"],
        efficiency=efficiency,
    )
    capacity = capacity_report(
        model,
        offered_rps=[
            one_shard["throughput_rps"] * mult
            for mult in LOAD_MULTIPLES
        ],
        target_p99_s=TARGET_P99_FACTOR * serial["service_p99_s"],
        cost=ShardCostModel(),
    )

    serial_entry = dict(serial)
    serial_entry.pop("canonical")
    return {
        "experiment": "SCALE",
        "workload": WORKLOAD,
        "num_requests": num_requests,
        "pool_size": pool_size,
        "usable_cpus": usable_cpus,
        "shard_counts": list(SHARD_COUNTS),
        "serial": serial_entry,
        "points": points,
        "capacity": capacity,
    }


def check(report):
    """Acceptance gates; returns (ok, messages)."""
    ok = True
    messages = []
    for point in report["points"]:
        label = f"{point['shards']}-shard"
        if (
            point["identical_to_serial"]
            and point["ok"] == report["num_requests"]
            and point["restarts"] == 0
        ):
            messages.append(
                f"ok: {label} run byte-identical to serial, "
                f"{point['ok']}/{report['num_requests']} exactly once, "
                f"0 restarts"
            )
        else:
            ok = False
            messages.append(
                f"FAIL: {label} run matched "
                f"{point['matched']}/{report['num_requests']}, "
                f"restarts {point['restarts']}"
            )
        gate = point["gate"]
        if not gate["applicable"]:
            if gate["required_speedup"] is not None:
                messages.append(
                    f"skip: {label} speedup gate "
                    f"(>= {gate['required_speedup']}x) needs multiple "
                    f"cores; host has {gate['usable_cpus']}"
                )
            continue
        if point["speedup_vs_1shard"] >= gate["required_speedup"]:
            messages.append(
                f"ok: {label} speedup "
                f"{point['speedup_vs_1shard']:.2f}x >= "
                f"{gate['required_speedup']}x"
            )
        else:
            ok = False
            messages.append(
                f"FAIL: {label} speedup "
                f"{point['speedup_vs_1shard']:.2f}x < "
                f"{gate['required_speedup']}x"
            )

    capacity = report["capacity"]
    plans = capacity["plans"]
    if plans and plans[0]["feasible"]:
        messages.append(
            f"ok: lightest load "
            f"({plans[0]['offered_rps']:.1f} rps) feasible with "
            f"{plans[0]['shards']} shard(s)"
        )
    else:
        ok = False
        messages.append("FAIL: lightest capacity load infeasible")
    shard_series = [p["shards"] for p in plans if p["feasible"]]
    if shard_series == sorted(shard_series):
        messages.append(
            "ok: planned shard counts non-decreasing with load "
            f"({shard_series})"
        )
    else:
        ok = False
        messages.append(
            f"FAIL: planned shard counts not monotone: {shard_series}"
        )
    if all(
        p["cost_per_hour"] > 0 and p["cost_per_million"] > 0
        for p in plans
        if p["feasible"]
    ):
        messages.append("ok: all feasible plans have positive costs")
    else:
        ok = False
        messages.append("FAIL: a feasible plan has non-positive cost")
    return ok, messages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes and relaxed gates for CI")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if acceptance targets fail")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    num_requests = QUICK_REQUESTS if args.quick else FULL_REQUESTS
    pool_size = QUICK_POOL if args.quick else FULL_POOL
    gates = QUICK_GATES if args.quick else FULL_GATES
    report = run_scale_study(num_requests, pool_size, gates)
    ok, messages = check(report)
    report["check"] = {"passed": ok, "messages": messages}
    report["quick"] = args.quick

    serial = report["serial"]
    print(
        f"workload: {report['workload']}  requests: {num_requests}  "
        f"cpus: {report['usable_cpus']}"
    )
    print(
        f"  serial: {serial['elapsed_s']:.2f} s "
        f"({serial['throughput_rps']:.1f} rps, service p99 "
        f"{serial['service_p99_s'] * 1000:.1f} ms)"
    )
    for point in report["points"]:
        speedup = point["speedup_vs_1shard"]
        print(
            f"  {point['shards']} shard(s): {point['elapsed_s']:.2f} s "
            f"({point['throughput_rps']:.1f} rps, "
            f"speedup {speedup:.2f}x, "
            f"p99 {point['latency_s']['p99'] * 1000:.1f} ms, "
            f"identical={point['identical_to_serial']})"
        )
    for plan in report["capacity"]["plans"]:
        if plan["feasible"]:
            print(
                f"  capacity: {plan['offered_rps']:.1f} rps -> "
                f"{plan['shards']} shard(s), "
                f"${plan['cost_per_million']:.4f}/1M req"
            )
        else:
            print(
                f"  capacity: {plan['offered_rps']:.1f} rps -> "
                f"infeasible"
            )
    for message in messages:
        print(f"  {message}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    if args.check and not ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
