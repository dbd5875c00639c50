"""Experiment OBS: observability overhead and stitched-trace identity.

The ``repro.obs`` spine promises near-zero cost when disabled -- the
``@profiled`` wrapper on every hot kernel reduces to one tracer
``enabled`` flag read, and the observability plane's newer layers
(flight recorder, SLO evaluator, cross-process trace stitching) must
not change that.  This bench measures the promise and gates it in CI:

- **kernel row**: tracing, metrics and ledger all off (the default
  state of every library entry point).  Measured
  against the unwrapped kernel (``fn.__wrapped__``), the wrapper must
  cost at most ``--max-overhead`` (default 5%) at the bench size.
- **kernel+recorder row**: same measurement with a
  :class:`~repro.obs.recorder.FlightRecorder` armed (ledger watcher
  registered, sampler thread running) and an SLO evaluator constructed
  while the pillars stay disabled -- arming the plane must still cost
  at most the gate.
- **cluster rows** (``inproc`` and ``process`` backends): a 2-shard
  :class:`~repro.serve.cluster.ShardCluster` serving a fixed request
  set, measured disabled-plain vs disabled-armed (same gate), plus a
  fully-enabled pass that asserts the stitched-trace contract -- every
  request trace spans ``cluster.request -> request -> worker`` and the
  canonical trace encoding is byte-identical on a rerun and across the
  inproc/process backends.
- **admission-hit row**: an ``hls`` request answered from an in-memory
  cache at admission (``submit_request`` plus ``.result()``), timed
  with every pillar off against the same hit with tracing, metrics
  and the ledger on -- once with a fresh ``EvalRequest`` per hit (one
  digest each) and once resubmitting one object.  Reported, not
  gated: it is the armed hit-path cost the record-time work has to
  bring down.
- **enabled** numbers are reported for the record, never gated --
  recording spans is supposed to cost something.

Run standalone to emit the JSON artifact and a sample Chrome trace::

    PYTHONPATH=src python benchmarks/bench_obs.py --quick \
        --out BENCH_obs.json --trace-out BENCH_obs_trace.json

Acceptance targets (``--check`` fills ``study["check"]`` and makes the
exit code nonzero on failure):

- disabled/armed-mode overhead <= 5% on every gated row;
- the enabled kernel run records at least one span per call (the
  ``@profiled`` span actually opens);
- stitched cluster traces byte-identical across reruns and backends.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from repro import obs
from repro.imc.crossbar import AnalogCrossbar, CrossbarConfig
from repro.obs.trace import derive_trace_id

FULL = {"rows": 128, "cols": 128, "batch": 8, "calls": 400,
        "cluster_requests": 96, "hits": 3000}
QUICK = {"rows": 64, "cols": 64, "batch": 4, "calls": 120,
         "cluster_requests": 48, "hits": 1000}

#: Span names every stitched cluster request trace must contain.
STITCHED_NAMES = ("cluster.request", "request", "worker")


def _make_workload(size):
    """A seeded crossbar and input batch; returns (call, unwrapped)."""
    xbar = AnalogCrossbar(
        CrossbarConfig(rows=size["rows"], cols=size["cols"]), seed=42
    )
    rng = np.random.default_rng(42)
    xbar.program_weights(rng.uniform(-1, 1, (size["rows"], size["cols"])))
    xs = rng.uniform(-1, 1, (size["batch"], size["rows"]))

    def call():
        return xbar.mvm_batch(xs)

    # ``@profiled`` uses functools.wraps, so the raw kernel is reachable
    # for an honest no-instrumentation baseline.
    raw = AnalogCrossbar.mvm_batch.__wrapped__

    def direct():
        return raw(xbar, xs)

    return call, direct


def _time_calls(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - start


def _reset_all():
    obs.get_tracer().reset()
    obs.get_ledger().reset()
    obs.get_metrics().reset()


def _interleaved_times(baseline, candidate, calls, repeats: int):
    """Time *baseline* and *candidate* in adjacent pairs, `repeats`
    pairs total, so scheduler drift lands on both sides of each pair
    alike."""
    baseline_times = []
    candidate_times = []
    for _ in range(repeats):
        baseline_times.append(_time_calls(baseline, calls))
        candidate_times.append(_time_calls(candidate, calls))
    return baseline_times, candidate_times


def _pair_overhead(baseline_times, candidate_times) -> float:
    """Overhead of the best interleaved (baseline, candidate) pair.

    Each pair ran back to back, so noise largely cancels within it;
    the ratio of independent minima, by contrast, can compare a quiet
    baseline floor against a candidate pass that ate a descheduling
    blip and report phantom overhead.  One quiet pair out of `repeats`
    suffices for an honest reading."""
    return min(
        candidate / baseline
        for baseline, candidate in zip(baseline_times, candidate_times)
    ) - 1.0


def _measure_kernel(size, repeats: int):
    """One overhead row: direct vs wrapped-disabled vs wrapped-enabled."""
    call, direct = _make_workload(size)
    calls = size["calls"]

    obs.disable()
    call()  # warm-up: imports, allocator, caches
    direct_times, disabled_times = _interleaved_times(
        direct, call, calls, repeats
    )
    direct_s = min(direct_times)
    disabled_s = min(disabled_times)
    disabled_overhead = _pair_overhead(direct_times, disabled_times)

    tracer = obs.enable_tracing()
    tracer.reset()
    ctx_id = derive_trace_id("bench-obs", 0)
    root = tracer.start_span("bench", trace_id=ctx_id, parent_id="")
    with tracer.activate(root.context):
        enabled_s = min(_time_calls(call, calls) for _ in range(repeats))
    tracer.end_span(root)
    spans = len(tracer.spans(ctx_id))
    obs.disable()

    return {
        "kind": "kernel",
        "kernel": "imc.mvm_batch",
        "size": {k: size[k] for k in ("rows", "cols", "batch")},
        "calls": calls,
        "direct_s": direct_s,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_s / direct_s - 1.0,
        "spans_recorded": spans,
        "gated": True,
    }


def _measure_kernel_armed(size, repeats: int):
    """The kernel row again with the recorder armed and an SLO
    evaluator constructed while every pillar stays disabled -- the
    arming itself must be free on the hot path."""
    from repro.obs.recorder import FlightRecorder
    from repro.obs.slo import SLOEvaluator, SLOSpec

    call, direct = _make_workload(size)
    calls = size["calls"]

    obs.disable()
    call()
    recorder = FlightRecorder(interval_s=0.05)
    recorder.watch_ledger()
    recorder.start()
    evaluator = SLOEvaluator(
        [SLOSpec(name="p99", objective="p99_latency", target=0.5)]
    )
    try:
        direct_times, armed_times = _interleaved_times(
            direct, call, calls, repeats
        )
        evaluator.evaluate(recorder.samples())
    finally:
        recorder.stop()
    direct_s = min(direct_times)
    armed_s = min(armed_times)

    return {
        "kind": "kernel+recorder",
        "kernel": "imc.mvm_batch",
        "size": {k: size[k] for k in ("rows", "cols", "batch")},
        "calls": calls,
        "direct_s": direct_s,
        "disabled_s": armed_s,
        "enabled_s": None,
        "disabled_overhead": _pair_overhead(
            direct_times, armed_times
        ),
        "enabled_overhead": None,
        "samples_recorded": len(recorder.samples()),
        "gated": True,
    }


def _measure_admission_hit(size, repeats: int):
    """Admission-hit row: per-hit wall time of an ``hls`` cache hit
    with every pillar off (plain) and on (armed), for fresh and
    resubmitted request objects.  Each timed pass starts from empty
    stores, so the armed side never pays for an earlier pass's
    records."""
    from repro.core.api import example_config, get_workload
    from repro.exec import ResultCache
    from repro.serve import EvalRequest, EvaluationService

    hits = size["hits"]
    config = example_config(get_workload("hls"))
    request = EvalRequest("hls", config, seed=0)
    obs.disable()
    _reset_all()
    service = EvaluationService(cache=ResultCache())
    try:
        assert service.submit_request(request).result(timeout=60).ok

        def fresh():
            for _ in range(hits):
                service.submit_request(
                    EvalRequest("hls", config, seed=0)
                ).result()

        def resubmitted():
            for _ in range(hits):
                service.submit_request(request).result()

        def timed(body, armed):
            _reset_all()
            if armed:
                obs.enable()
            try:
                return _time_calls(body, 1) / hits
            finally:
                obs.disable()

        fresh(), resubmitted()  # warm-up
        row = {"kind": "admission-hit", "kernel": "hls serve hit",
               "hits": hits, "gated": False}
        for label, body in (("fresh", fresh),
                            ("resubmitted", resubmitted)):
            plain, armed = [], []
            for _ in range(repeats):
                plain.append(timed(body, False))
                armed.append(timed(body, True))
            row[f"{label}_plain_us"] = min(plain) * 1e6
            row[f"{label}_armed_us"] = min(armed) * 1e6
            row[f"{label}_armed_overhead"] = _pair_overhead(plain, armed)
    finally:
        service.shutdown()
        _reset_all()
    return row


def _cluster_requests(size):
    from repro.serve import EvalRequest

    return [
        EvalRequest(
            workload="imc-crossbar",
            config={"rows": 32, "cols": 32},
            seed=seed,
        )
        for seed in range(size["cluster_requests"])
    ]


def _run_cluster(backend, size, recorder=None):
    """One pass of the fixed request set through a fresh 2-shard
    cluster; returns wall seconds (spawn/ready time excluded)."""
    from repro.serve import ShardCluster

    cluster = ShardCluster(
        num_shards=2,
        backend=backend,
        batch_size=4,
        batch_wait_s=0.001,
        max_queue=size["cluster_requests"],
        supervise=False,
    )
    cluster.wait_ready()
    if recorder is not None:
        recorder.attach_cluster(cluster)
    try:
        start = time.perf_counter()
        futures = [
            cluster.submit_request(request, block=True)
            for request in _cluster_requests(size)
        ]
        for future in futures:
            future.result()
        elapsed = time.perf_counter() - start
    finally:
        cluster.shutdown()
    return elapsed


def _measure_cluster(backend, size, repeats: int):
    """Cluster row: disabled-plain vs disabled-armed wall time (gated),
    one enabled pass asserting the stitched-trace contract, and a
    second enabled pass pinning canonical byte-identity."""
    from repro.obs.recorder import FlightRecorder
    from repro.obs.slo import SLOEvaluator, SLOSpec

    obs.disable()
    _reset_all()
    _run_cluster(backend, size)  # warm-up (imports, spawn machinery)

    # Cluster wall times carry +-15% scheduler/IPC jitter per pass
    # (measured on an idle 4-core box); the pair-min gate needs one
    # quiet pair, so give it at least five chances.
    repeats = max(repeats, 5)

    # Interleave plain/armed passes so scheduler drift hits both sides
    # alike; the gate reads the best adjacent pair (below), which only
    # needs ONE quiet window out of `repeats` rather than quiet floors
    # on both sides independently.
    plain_times = []
    armed_times = []
    armed_samples = 0
    for _ in range(repeats):
        plain_times.append(_run_cluster(backend, size))
        recorder = FlightRecorder(interval_s=0.05)
        recorder.watch_ledger()
        recorder.start()
        evaluator = SLOEvaluator(
            [
                SLOSpec(
                    name="p99", objective="p99_latency", target=0.5,
                    workload="imc-crossbar",
                )
            ]
        )
        try:
            armed_times.append(_run_cluster(backend, size, recorder))
            evaluator.evaluate(recorder.samples())
        finally:
            recorder.stop()
        armed_samples = max(armed_samples, len(recorder.samples()))
    plain_s = min(plain_times)
    armed_s = min(armed_times)
    pair_overhead = _pair_overhead(plain_times, armed_times)

    def _enabled_pass():
        obs.enable()
        _reset_all()
        tracer = obs.get_tracer()
        elapsed = _run_cluster(backend, size)
        canonical = tracer.canonical_json()
        spans = tracer.spans()
        obs.disable()
        return elapsed, canonical, spans

    enabled_s, canonical, spans = _enabled_pass()
    _, canonical_rerun, _ = _enabled_pass()

    by_trace = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], set()).add(span["name"])
    stitched = sum(
        1
        for names in by_trace.values()
        if all(name in names for name in STITCHED_NAMES)
    )
    return {
        "kind": f"cluster[{backend}]",
        "kernel": "imc-crossbar serve",
        "backend": backend,
        "requests": size["cluster_requests"],
        "direct_s": plain_s,
        "disabled_s": armed_s,
        "enabled_s": enabled_s,
        "disabled_overhead": pair_overhead,
        "enabled_overhead": enabled_s / plain_s - 1.0,
        "recorder_samples": armed_samples,
        "stitched_traces": stitched,
        "rerun_identical": canonical == canonical_rerun,
        "canonical": canonical,
        "gated": True,
    }


def _sample_trace(quick: bool):
    """A small end-to-end serve run; returns Chrome trace JSON."""
    from repro.obs.ledger import get_ledger
    from repro.serve import EvalRequest, serve_requests

    obs.enable()
    tracer = obs.get_tracer()
    tracer.reset()
    get_ledger().reset()
    requests = [
        EvalRequest(
            workload="imc-crossbar",
            config={"rows": 32, "cols": 32, "batch": 4},
            seed=seed,
        )
        for seed in range(2 if quick else 4)
    ]
    serve_requests(requests, batch_size=4)
    trace = tracer.to_chrome()
    obs.disable()
    return trace


def run_obs_study(sizes, repeats: int = 3, clusters: bool = True):
    """Measure wrapper/recorder/stitching overhead; returns the
    JSON-able study."""
    rows = [
        _measure_kernel(sizes, repeats),
        _measure_kernel_armed(sizes, repeats),
    ]
    hit_row = _measure_admission_hit(sizes, repeats)
    backends_identical = None
    if clusters:
        cluster_rows = [
            _measure_cluster("inproc", sizes, repeats),
            _measure_cluster("process", sizes, repeats),
        ]
        backends_identical = (
            cluster_rows[0].pop("canonical")
            == cluster_rows[1].pop("canonical")
        )
        rows.extend(cluster_rows)
    return {
        "hardware": {"cpu_count": os.cpu_count()},
        "repeats": repeats,
        "rows": rows,
        "admission_hit": hit_row,
        "stitched_backends_identical": backends_identical,
    }


def render(study) -> str:
    from repro.core.tables import Table

    table = Table(
        ["row", "work", "baseline (s)", "disabled (s)", "enabled (s)",
         "off ovh", "on ovh", "stitched"],
        title="bench_obs -- observability overhead "
        "(baseline: uninstrumented / plain-disabled)",
    )
    for row in study["rows"]:
        table.add_row(
            [
                row["kind"],
                row.get("calls") or row.get("requests"),
                round(row["direct_s"], 4),
                round(row["disabled_s"], 4),
                (
                    round(row["enabled_s"], 4)
                    if row.get("enabled_s") is not None
                    else "-"
                ),
                f"{row['disabled_overhead']:+.1%}",
                (
                    f"{row['enabled_overhead']:+.1%}"
                    if row.get("enabled_overhead") is not None
                    else "-"
                ),
                row.get("stitched_traces", "-"),
            ]
        )
    lines = [table.render()]
    hit = study.get("admission_hit")
    if hit is not None:
        for label in ("fresh", "resubmitted"):
            lines.append(
                f"admission hit ({label}, {hit['hits']} hits, hls): "
                f"plain {hit[label + '_plain_us']:.1f} us, "
                f"armed {hit[label + '_armed_us']:.1f} us "
                f"({hit[label + '_armed_overhead']:+.0%}, not gated)"
            )
    if study.get("stitched_backends_identical") is not None:
        lines.append(
            "stitched canonical traces identical across "
            "inproc/process backends: "
            + ("yes" if study["stitched_backends_identical"] else "NO")
        )
    return "\n".join(lines)


def check(study, max_overhead: float = 0.05):
    """Evaluate the acceptance gates; returns (and stores on the
    study) the ``{"passed", "messages"}`` block summarize.py reads."""
    messages = []
    for row in study["rows"]:
        if row.get("gated"):
            over = row["disabled_overhead"] > max_overhead
            messages.append(
                f"FAIL {row['kind']}: disabled-mode observability "
                f"overhead {row['disabled_overhead']:+.1%} exceeds "
                f"the {max_overhead:.0%} gate"
                if over
                else f"ok overhead {row['kind']} "
                f"({row['disabled_overhead']:+.1%})"
            )
        if row["kind"] == "kernel":
            bridged = row["spans_recorded"] >= row["calls"]
            messages.append(
                f"ok spans {row['kind']} ({row['spans_recorded']})"
                if bridged
                else f"FAIL {row['kind']}: enabled run recorded "
                f"{row['spans_recorded']} spans for {row['calls']} "
                "calls (@profiled opened no span)"
            )
        if row["kind"].startswith("cluster"):
            if row["stitched_traces"] < row["requests"]:
                messages.append(
                    f"FAIL {row['kind']}: only "
                    f"{row['stitched_traces']}/{row['requests']} "
                    "request traces span "
                    f"{' -> '.join(STITCHED_NAMES)}"
                )
            else:
                messages.append(
                    f"ok stitched {row['kind']} "
                    f"({row['stitched_traces']}/{row['requests']})"
                )
            if not row["rerun_identical"]:
                messages.append(
                    f"FAIL {row['kind']}: canonical stitched trace "
                    "differs across reruns"
                )
            else:
                messages.append(f"ok rerun identity {row['kind']}")
            if row["recorder_samples"] < 1:
                messages.append(
                    f"FAIL {row['kind']}: flight recorder captured "
                    "no samples during the armed pass"
                )
            else:
                messages.append(
                    f"ok flight samples {row['kind']} "
                    f"({row['recorder_samples']})"
                )
    if study.get("stitched_backends_identical") is False:
        messages.append(
            "FAIL stitching: canonical traces differ between the "
            "inproc and process backends"
        )
    elif study.get("stitched_backends_identical"):
        messages.append(
            "ok stitching identical across inproc/process backends"
        )
    result = {
        "passed": not any(m.startswith("FAIL") for m in messages),
        "messages": messages,
    }
    study["check"] = result
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per mode (min is kept)")
    parser.add_argument("--out", default=None,
                        help="write the study JSON here")
    parser.add_argument("--trace-out", default=None,
                        help="write a sample serve Chrome trace here")
    parser.add_argument("--check", action="store_true",
                        help="evaluate the <=5%% disabled-overhead and "
                        "stitched-identity gates")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="disabled-mode overhead gate (fraction)")
    parser.add_argument("--no-cluster", action="store_true",
                        help="skip the 2-shard cluster rows")
    args = parser.parse_args(argv)

    sizes = QUICK if args.quick else FULL
    study = run_obs_study(
        sizes, repeats=args.repeats, clusters=not args.no_cluster
    )
    study["quick"] = bool(args.quick)
    print(render(study))
    failed = False
    if args.check:
        result = check(study, max_overhead=args.max_overhead)
        for message in result["messages"]:
            print(message)
        if result["passed"]:
            print("bench_obs checks: PASS")
        else:
            failed = True
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(study, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    if args.trace_out:
        trace = _sample_trace(quick=args.quick)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=1, sort_keys=True)
        print(
            f"wrote {args.trace_out} "
            f"({len(trace['traceEvents'])} trace events)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
