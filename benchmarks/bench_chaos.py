"""Experiment CHAOS: fault tolerance of the sharded serving cluster.

The robustness claim behind :mod:`repro.serve.cluster`: a supervised
shard cluster survives a seeded chaos schedule -- shard kills
mid-campaign, submission delays, queue-pressure bursts -- with
**exactly-once** results.  Every admitted request completes, nothing is
delivered twice, the surviving results are byte-identical (canonical
form) to an undisturbed serial run, and tail latency degrades by a
bounded factor rather than collapsing.  Circuit breakers shed load from
a workload that fails persistently instead of letting it poison every
micro-batch.

Run standalone to emit the JSON artifact CI uploads::

    PYTHONPATH=src python benchmarks/bench_chaos.py --quick \
        --out BENCH_chaos.json

Acceptance targets (asserted with ``--check``, reported always):

- kill-one-shard-mid-campaign on a 4-shard cluster: zero lost, zero
  duplicated, >= 1 supervised restart, results byte-identical to the
  serial baseline, and the run ledger records the failure/replay story;
- the same kill on a 2-shard ``backend="process"`` cluster, where the
  kill is a SIGKILL of a real worker process: zero lost, zero
  duplicated, >= 1 supervised restart, byte-identical results.  The
  row also reports ``restart_s``, the seconds from the SIGKILL to the
  replacement worker's ready message (reported, not gated);
- delay and burst schedules: exactly-once with results unperturbed;
- chaos p99 latency bounded by ``10x baseline p99 + 1 s``;
- a persistently failing workload trips its circuit breaker open and
  sheds at least one request.
"""

import argparse
import json
import sys

from repro.core.api import build_run_result, get_workload, register_workload
from repro.obs.ledger import get_ledger
from repro.resilience import ChaosPolicy, CircuitOpenError
from repro.serve import ShardRouter, generate_requests, run_chaos_campaign
from repro.serve.cluster import ShardCluster

WORKLOAD = "imc-crossbar"
FULL_REQUESTS = 48
QUICK_REQUESTS = 24
NUM_SHARDS = 4
PROCESS_SHARDS = 2
POOL_SIZE = 6
ZIPF_SKEW = 2.0
SEED = 7
HEARTBEAT_S = 0.02
P99_FACTOR = 10.0
P99_SLACK_S = 1.0


class _AlwaysFailingWorkload:
    """Persistent failure: the breaker-trip scenario's fuel."""

    name = "chaos-always-fails"

    def space(self):
        return {"x": (1,)}

    def evaluate(self, config, *, seed=0, impl=None):
        raise RuntimeError("persistent failure (chaos bench)")


def _requests(num_requests):
    workload = get_workload(WORKLOAD)
    return generate_requests(
        workload,
        num_requests,
        pool_size=POOL_SIZE,
        skew=ZIPF_SKEW,
        seed=SEED,
    )


def serial_baseline(requests):
    """Canonical result per distinct digest from direct evaluation --
    the ground truth every chaos scenario is compared against."""
    workload = get_workload(WORKLOAD)
    canonical = {}
    for request in requests:
        if request.digest not in canonical:
            result = workload.evaluate(request.config, seed=request.seed)
            canonical[request.digest] = result.canonical_json()
    return canonical


def _campaign(requests, policy, **kwargs):
    kwargs.setdefault("num_shards", NUM_SHARDS)
    kwargs.setdefault("heartbeat_s", HEARTBEAT_S)
    return run_chaos_campaign(requests, policy, **kwargs)


def _scenario_entry(name, requests, baseline, report, results):
    matched = sum(
        1
        for request, result in zip(requests, results)
        if result is not None
        and result.canonical_json() == baseline[request.digest]
    )
    return {
        "scenario": name,
        "num_requests": report["num_requests"],
        "policy": report["policy"],
        "completed": report["completed"],
        "lost": report["lost"],
        "duplicate_results": report["duplicate_results"],
        "errors": report["errors"],
        "extras": report["extras"],
        "extra_lost": report["extra_lost"],
        "restarts": report["restarts"],
        "replayed": report["replayed"],
        "identical_to_serial": matched == len(requests),
        "matched": matched,
        "latency_s": report["latency_s"],
        "elapsed_s": report["elapsed_s"],
    }


def run_baseline(requests, baseline):
    """Undisturbed cluster run: the latency reference and the proof
    that sharding alone does not perturb results."""
    results, report = _campaign(requests, ChaosPolicy())
    return _scenario_entry("baseline", requests, baseline, report, results)


def run_kill_scenario(
    requests, baseline, *, backend="inproc", num_shards=NUM_SHARDS
):
    """The flagship scenario: kill the shard owning the middle of the
    stream while its queue holds work; the supervisor must detect,
    restart and replay with exactly-once delivery.

    The run ledger is enabled so recovery goes through the
    ledger-replay path and the event stream can be audited afterwards.
    On ``backend="process"`` the kill is a SIGKILL of the shard's
    worker process.
    """
    at_request = len(requests) // 2
    router = ShardRouter(num_shards)
    victim = router.route(requests[at_request - 1].digest)
    policy = ChaosPolicy.kill_shard(at_request=at_request, shard=victim)

    ledger = get_ledger()
    ledger.reset()
    ledger.enable()
    try:
        results, report = _campaign(
            requests, policy, backend=backend, num_shards=num_shards
        )
        events = {record["event"] for record in ledger.events()}
        replay_events = sum(
            1
            for record in ledger.events()
            if record["event"] == "cluster.replay"
        )
    finally:
        ledger.disable()
        ledger.reset()
    name = "kill_shard" if backend == "inproc" else f"kill_shard_{backend}"
    entry = _scenario_entry(name, requests, baseline, report, results)
    entry["victim_shard"] = victim
    if backend == "process":
        entry["restart_s"] = report["kills"][0].get("restart_s")
    entry["ledger"] = {
        "has_shard_down": "shard.down" in events,
        "has_shard_restarted": "shard.restarted" in events,
        "replay_events": replay_events,
        "replay_matches_report": replay_events == report["replayed"],
    }
    return entry


def run_delay_scenario(requests, baseline):
    """Seeded submission-path delays: tail latency must stay bounded
    and results untouched."""
    policy = ChaosPolicy.random(
        SEED, len(requests), NUM_SHARDS,
        kills=0, delays=3, bursts=0, max_delay_s=0.05,
    )
    results, report = _campaign(requests, policy)
    return _scenario_entry("delay", requests, baseline, report, results)


def run_burst_scenario(requests, baseline):
    """Queue-pressure bursts: duplicate copies slam the queue; dedup
    and admission control must absorb them without loss."""
    policy = ChaosPolicy.random(
        SEED, len(requests), NUM_SHARDS,
        kills=0, delays=0, bursts=2, burst_copies=8,
    )
    results, report = _campaign(requests, policy)
    return _scenario_entry("burst", requests, baseline, report, results)


def run_breaker_scenario(num_requests):
    """A workload that fails every attempt must trip its breaker open
    and start shedding instead of riding into every batch."""
    register_workload(_AlwaysFailingWorkload(), replace=True)
    threshold = 4
    cluster = ShardCluster(
        num_shards=2,
        batch_size=4,
        batch_wait_s=0.001,
        breaker_threshold=threshold,
        breaker_recovery_s=30.0,
        heartbeat_s=HEARTBEAT_S,
    )
    shed = 0
    failures = 0
    submitted = 0
    try:
        # Synchronous round trips: each failure lands before the next
        # admission decision, so the breaker's state transition is what
        # gates request threshold+1 onward.
        for index in range(num_requests):
            try:
                future = cluster.submit(
                    _AlwaysFailingWorkload.name,
                    {"x": 1},
                    seed=index,  # distinct digests: no dedup relief
                    block=True,
                )
            except CircuitOpenError:
                shed += 1
                continue
            submitted += 1
            if not future.result(timeout=60.0).ok:
                failures += 1
        breaker = cluster.breaker(_AlwaysFailingWorkload.name)
        snapshot = breaker.snapshot()
    finally:
        cluster.shutdown(drain=False)
    return {
        "scenario": "breaker_trip",
        "num_requests": num_requests,
        "threshold": threshold,
        "submitted": submitted,
        "failures": failures,
        "shed": shed,
        "breaker": snapshot,
        "tripped": snapshot["state"] == "open" and shed > 0,
    }


def run_chaos_study(num_requests):
    requests = _requests(num_requests)
    baseline = serial_baseline(requests)
    scenarios = [
        run_baseline(requests, baseline),
        run_kill_scenario(requests, baseline),
        run_delay_scenario(requests, baseline),
        run_burst_scenario(requests, baseline),
        run_kill_scenario(
            requests, baseline,
            backend="process", num_shards=PROCESS_SHARDS,
        ),
    ]
    return {
        "workload": WORKLOAD,
        "num_requests": num_requests,
        "num_shards": NUM_SHARDS,
        "pool_size": POOL_SIZE,
        "zipf_skew": ZIPF_SKEW,
        "seed": SEED,
        "scenarios": scenarios,
        "breaker": run_breaker_scenario(max(8, num_requests // 3)),
    }


def check(report):
    """Gate the acceptance targets; returns (ok, messages)."""
    messages = []
    ok = True
    by_name = {entry["scenario"]: entry for entry in report["scenarios"]}
    for name, entry in by_name.items():
        if (
            entry["lost"] == 0
            and entry["duplicate_results"] == 0
            and entry["extra_lost"] == 0
        ):
            messages.append(f"ok: {name}: exactly-once delivery")
        else:
            ok = False
            messages.append(
                f"FAIL: {name}: lost={entry['lost']} "
                f"duplicated={entry['duplicate_results']} "
                f"extra_lost={entry['extra_lost']}"
            )
        if entry["identical_to_serial"]:
            messages.append(f"ok: {name}: byte-identical to serial run")
        else:
            ok = False
            messages.append(
                f"FAIL: {name}: only {entry['matched']}/"
                f"{entry['num_requests']} results match the serial run"
            )
    for name in ("kill_shard", "kill_shard_process"):
        kill = by_name[name]
        if kill["restarts"] >= 1:
            messages.append(
                f"ok: {name}: {kill['restarts']} supervised restart(s), "
                f"{kill['replayed']} request(s) replayed"
            )
        else:
            ok = False
            messages.append(f"FAIL: {name}: supervisor never restarted")
    ledger_story = by_name["kill_shard"]["ledger"]
    if (
        ledger_story["has_shard_down"]
        and ledger_story["has_shard_restarted"]
        and ledger_story["replay_matches_report"]
    ):
        messages.append("ok: kill_shard: ledger records down/restart/replay")
    else:
        ok = False
        messages.append(f"FAIL: kill_shard ledger story: {ledger_story}")
    base_p99 = by_name["baseline"]["latency_s"]["p99"]
    bound = base_p99 * P99_FACTOR + P99_SLACK_S
    for name in ("kill_shard", "delay", "burst"):
        p99 = by_name[name]["latency_s"]["p99"]
        if p99 <= bound:
            messages.append(
                f"ok: {name}: p99 {p99 * 1000:.1f} ms within bound "
                f"{bound * 1000:.1f} ms"
            )
        else:
            ok = False
            messages.append(
                f"FAIL: {name}: p99 {p99 * 1000:.1f} ms exceeds "
                f"{bound * 1000:.1f} ms "
                f"({P99_FACTOR:g}x baseline + {P99_SLACK_S:g} s)"
            )
    breaker = report["breaker"]
    if breaker["tripped"]:
        messages.append(
            f"ok: breaker tripped open after {breaker['threshold']} "
            f"failures; shed {breaker['shed']} request(s)"
        )
    else:
        ok = False
        messages.append(f"FAIL: breaker never tripped: {breaker['breaker']}")
    return ok, messages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if acceptance targets fail")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    num_requests = QUICK_REQUESTS if args.quick else FULL_REQUESTS
    report = run_chaos_study(num_requests)
    ok, messages = check(report)
    report["check"] = {"passed": ok, "messages": messages}

    print(
        f"workload: {report['workload']}  requests: {num_requests}  "
        f"shards: {report['num_shards']}"
    )
    for entry in report["scenarios"]:
        latency = entry["latency_s"]
        restart_s = entry.get("restart_s")
        print(
            f"  {entry['scenario']:>10}: lost {entry['lost']}, "
            f"dup {entry['duplicate_results']}, "
            f"restarts {entry['restarts']}, "
            f"replayed {entry['replayed']}, "
            f"p99 {latency['p99'] * 1000:.1f} ms, "
            f"identical={entry['identical_to_serial']}"
            + (f", restart {restart_s:.3f} s" if restart_s is not None
               else "")
        )
    breaker = report["breaker"]
    print(
        f"  breaker: state {breaker['breaker']['state']}, "
        f"shed {breaker['shed']}/{breaker['num_requests']}"
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
