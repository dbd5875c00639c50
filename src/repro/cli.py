"""Command-line interface: regenerate paper artifacts from the shell.

``python -m repro <artifact>`` prints the regenerated table/series for
one paper artifact without going through pytest -- the quick way to eyeball
a result or pipe it into another tool.

Artifacts: ``fig1``, ``fig2``, ``fig7``, ``table1``, ``taxonomy`` (alias
of fig2), ``scf``, ``survey-csv``, plus ``faults`` -- a quick
fault-injection resilience sweep (IMC stuck-at cells and hetero
transient-storage faults) over the :mod:`repro.resilience` subsystem --
and ``exec`` -- the parallel evaluation engine demo: an IMC crossbar
campaign fanned out over the process pool with content-addressed result
caching (``--workers``, ``--cells``, ``--cache-dir``, ``--no-cache``).

``profile [demo]`` enables :mod:`repro.obs` tracing and metrics, runs one
(or all) of the short kernel demos -- ``imc``, ``dna``, ``axc``,
``sparta``, ``hls``, ``exec`` -- each under a root span named after it,
and prints the span tree aggregated by name path followed by the
metrics registry's histograms and counters.

``serve`` runs the :mod:`repro.serve` micro-batched evaluation service:
``--requests FILE`` serves a JSON array of requests one-shot; without it
a synthetic load (``--workload``, ``--num-requests``, ``--rate``,
``--batch-size``) exercises the service and prints the
latency/throughput point, optionally writing the full metrics snapshot
with ``--out``.  With ``--trace-dir DIR`` the run executes under
:mod:`repro.obs` tracing and writes ``trace.jsonl``, ``ledger.jsonl``
and a Chrome ``trace.chrome.json`` into DIR.

``obs`` inspects such a directory: ``repro obs show <trace_id>``
renders one request's span tree and ledger events, ``repro obs
summary`` aggregates span durations per name, ``repro obs export
--format=chrome`` re-exports the spans as Chrome trace-event JSON.

``campaign`` runs declarative campaign DAGs (:mod:`repro.campaign`)
from a JSON or ``.py`` graph spec: ``repro campaign run spec.json
[--workers N] [--cache PATH] [--checkpoint PATH] [--serve]
[--trace-dir DIR]``, ``resume`` to continue against a checkpoint,
``status`` to inspect progress, ``example`` to emit the worked
composite spec (a DSE exploration feeding a hetero campaign feeding a
Pareto reduction).

``capacity`` answers the sizing question directly from the
:mod:`repro.serve.capacity` model: given a measured per-shard
throughput and service-time p99 (``--shard-rps`` / ``--shard-p99-ms``,
or ``--from-report BENCH_scale.json``), print shards needed and cost
per million requests at a target p99 over a load sweep.  ``repro serve
--capacity-report`` appends the same table to a live serving run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.tables import Table


def _cmd_fig1() -> str:
    from repro.survey import class_statistics, efficiency_trend, load_dataset

    records = load_dataset()
    table = Table(
        ["platform class", "designs", "min TOPS/W", "median TOPS/W",
         "max TOPS/W"],
        title="Fig. 1 -- SotA AI accelerators by platform class",
    )
    for s in class_statistics(records):
        table.add_row(
            [s.platform.value, s.count, s.min_tops_per_watt,
             s.median_tops_per_watt, s.max_tops_per_watt]
        )
    trend = efficiency_trend(records)
    return (
        table.render()
        + f"\ntrend: x{trend.growth_per_year:.2f}/year "
        f"(doubling every {trend.doubling_years:.1f} years)"
    )


def _cmd_fig2() -> str:
    from repro.imc.taxonomy import taxonomy_table

    table = Table(
        ["architecture", "weights (pJ)", "activations (pJ)",
         "compute (pJ)", "total (pJ)"],
        title="Fig. 2 -- 512x512 MVM energy per organization",
    )
    for row in taxonomy_table():
        table.add_row(
            [row["architecture"], row["weight_movement_pj"],
             row["activation_movement_pj"], row["compute_pj"],
             row["total_pj"]]
        )
    return table.render()


def _cmd_fig7() -> str:
    from repro.survey import power_band_histogram, riscv_subset

    table = Table(
        ["power band (W)", "designs"],
        title="Fig. 7 -- RISC-V DL accelerators per power band",
    )
    for (lo, hi), count in sorted(power_band_histogram(
            riscv_subset()).items()):
        table.add_row([f"[{lo:g}, {hi:g})", count])
    return table.render()


def _cmd_table1() -> str:
    from repro.axc.fpga_cost import table_i_rows

    table = Table(
        ["method", "bits", "Fmax (MHz)", "thr (Mpx/s)", "LUTs", "DSPs",
         "power (W)", "eff (Mpx/s/W)"],
        title="Table I -- HTCONV vs FPGA SotA",
    )
    for row in table_i_rows():
        table.add_row(
            [row.method, row.bitwidth, row.fmax_mhz,
             row.throughput_mpixels, row.resources.luts,
             row.resources.dsps,
             "NA" if row.power_w is None else row.power_w,
             "NA" if row.energy_efficiency is None
             else round(row.energy_efficiency, 1)]
        )
    return table.render()


def _cmd_scf() -> str:
    from repro.core.units import GIGA
    from repro.scf.fabric import ScalableComputeFabric
    from repro.scf.interconnect import AXIHierarchy, NocMesh
    from repro.scf.workloads import TransformerConfig

    workload = TransformerConfig(seq_len=2048)
    table = Table(
        ["CUs", "NoC GFLOPS", "NoC eff", "AXI GFLOPS", "AXI eff"],
        title="Fig. 8 -- SCF scale-up (transformer block)",
    )
    noc = ScalableComputeFabric(interconnect=NocMesh())
    axi = ScalableComputeFabric(interconnect=AXIHierarchy())
    for n in (1, 4, 16, 64):
        a = noc.run_block(workload, n)
        b = axi.run_block(workload, n)
        table.add_row(
            [n, a.sustained_flops / GIGA, a.parallel_efficiency,
             b.sustained_flops / GIGA, b.parallel_efficiency]
        )
    return table.render()


def _cmd_faults() -> str:
    import numpy as np

    from repro.hetero.campaign import run_resilient_campaign
    from repro.hetero.workload import SegmentationWorkload
    from repro.imc.devices import NVMDevice, RRAM_PARAMS
    from repro.imc.program_verify import program_and_verify
    from repro.resilience import (
        BackoffPolicy,
        FaultInjector,
        FaultModel,
        ResiliencePolicy,
    )

    workload = SegmentationWorkload(num_volumes=16, epochs=1)
    resilience = ResiliencePolicy(backoff=BackoffPolicy(max_attempts=4))
    hetero = Table(
        ["transient fault rate", "cells ok", "cells failed", "attempts",
         "backoff (s)"],
        title="Resilience -- hetero campaign under storage faults",
    )
    for rate in (0.0, 0.1, 0.2, 0.4):
        injector = FaultInjector(
            FaultModel(storage_transient_rate=rate), seed=7
        )
        report = run_resilient_campaign(
            workload, injector=injector, resilience=resilience
        )
        hetero.add_row(
            [rate, len(report.cells), len(report.errors),
             report.total_attempts, round(report.total_backoff_s, 3)]
        )

    imc = Table(
        ["stuck-cell fraction", "stuck cells", "converged fraction",
         "final RMS error"],
        title="Resilience -- IMC program-and-verify under stuck-at faults",
    )
    rng = np.random.default_rng(7)
    targets = rng.uniform(RRAM_PARAMS.g_min, RRAM_PARAMS.g_max, (32, 32))
    for fraction in (0.0, 0.02, 0.05, 0.1):
        device = NVMDevice(RRAM_PARAMS, (32, 32), seed=7)
        injector = FaultInjector(
            FaultModel(imc_stuck_fraction=fraction), seed=7
        )
        injector.inject_stuck_cells(device)
        result = program_and_verify(device, targets)
        imc.add_row(
            [fraction, device.stuck_cell_count,
             round(result.converged_fraction, 3),
             round(result.final_rms_error, 4)]
        )
    return hetero.render() + "\n\n" + imc.render()


def _cmd_exec(args: "argparse.Namespace") -> str:
    import os
    import time

    from repro.exec import ParallelEvaluator, ResultCache
    from repro.imc.sweep import crossbar_sweep, sweep_grid

    workers = args.workers or os.cpu_count() or 1
    cache = None
    if not args.no_cache:
        path = (
            os.path.join(args.cache_dir, "exec-cache.json")
            if args.cache_dir
            else None
        )
        cache = ResultCache(path=path)
    specs = sweep_grid(args.cells, rows=48, cols=48, num_inputs=8)

    table = Table(
        ["pass", "workers", "cells", "wall (s)", "cache hits",
         "cache misses", "hit rate"],
        title="Parallel evaluation engine -- IMC crossbar campaign",
    )

    start = time.perf_counter()
    serial = crossbar_sweep(specs)
    serial_s = time.perf_counter() - start
    table.add_row(["serial", 1, len(specs), round(serial_s, 3),
                   "-", "-", "-"])

    for label in ("parallel (cold)", "parallel (warm)"):
        engine = ParallelEvaluator(max_workers=workers, cache=cache)
        before = cache.stats() if cache is not None else None
        start = time.perf_counter()
        with engine:
            result = crossbar_sweep(specs, parallel=engine)
        wall = time.perf_counter() - start
        if result != serial:
            raise RuntimeError("parallel sweep diverged from serial run")
        if cache is not None:
            after = cache.stats()
            hits = after["hits"] - before["hits"]
            misses = after["misses"] - before["misses"]
            rate = hits / (hits + misses) if hits + misses else 0.0
            table.add_row([label, workers, len(specs), round(wall, 3),
                           hits, misses, round(rate, 3)])
        else:
            table.add_row([label, workers, len(specs), round(wall, 3),
                           "off", "off", "-"])
    if cache is not None:
        cache.close()
    footer = "results identical across serial/parallel/cached passes"
    if args.cache_dir:
        footer += f"; persistent cache at {args.cache_dir}"
    return table.render() + "\n" + footer


#: File names inside a ``--trace-dir`` directory; shared by the serve
#: exporter and the ``repro obs`` reader.
TRACE_FILE = "trace.jsonl"
LEDGER_FILE = "ledger.jsonl"
CHROME_FILE = "trace.chrome.json"
METRICS_FILE = "metrics.json"
FLIGHT_FILE = "flight.jsonl"


def _export_observability(trace_dir: str, recorder=None) -> str:
    """Write the collected spans/events/Chrome trace plus the metrics
    snapshot (and, when a flight *recorder* ran, its sample ring) into
    *trace_dir*; returns a one-line footer describing what landed
    where."""
    import json
    import os

    from repro import obs

    tracer = obs.get_tracer()
    ledger = obs.get_ledger()
    os.makedirs(trace_dir, exist_ok=True)
    spans = tracer.export_jsonl(os.path.join(trace_dir, TRACE_FILE))
    events = ledger.export_jsonl(os.path.join(trace_dir, LEDGER_FILE))
    chrome_path = os.path.join(trace_dir, CHROME_FILE)
    with open(chrome_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_chrome(), fh, indent=2, sort_keys=True)
    with open(
        os.path.join(trace_dir, METRICS_FILE), "w", encoding="utf-8"
    ) as fh:
        json.dump(
            obs.get_metrics().snapshot(), fh, indent=2, sort_keys=True
        )
    footer = (
        f"trace: {spans} spans / {events} events -> {trace_dir} "
        f"(chrome: {chrome_path}; inspect with 'repro obs summary "
        f"--trace-dir {trace_dir}')"
    )
    if recorder is not None:
        samples = recorder.export_jsonl(
            os.path.join(trace_dir, FLIGHT_FILE)
        )
        footer += f"; flight recorder: {samples} samples/dumps"
    return footer


def _capacity_table(report: dict, title: str) -> str:
    """Render a :func:`repro.serve.capacity.capacity_report` block as a
    table (shared by ``repro capacity`` and ``serve --capacity-report``)."""
    model = report["model"]
    currency = report["cost"]["currency"]
    table = Table(
        ["offered (rps)", "shards", "util", "p99 (ms)",
         f"{currency}/h", f"{currency}/1M req"],
        title=title,
    )
    for plan in report["plans"]:
        if plan["feasible"]:
            table.add_row(
                [
                    round(plan["offered_rps"], 1),
                    plan["shards"],
                    round(plan["utilization"], 3),
                    round(plan["modeled_p99_s"] * 1000, 2),
                    round(plan["cost_per_hour"], 2),
                    round(plan["cost_per_million"], 4),
                ]
            )
        else:
            table.add_row(
                [round(plan["offered_rps"], 1), "-", "-", "-", "-",
                 "infeasible"]
            )
    footer = (
        f"model: {model['per_shard_rps']:.1f} rps/shard, service p99 "
        f"{model['service_p99_s'] * 1000:.2f} ms, target p99 "
        f"{report['target_p99_s'] * 1000:.1f} ms, max utilization "
        f"{model['max_utilization']:g}"
    )
    return table.render() + "\n" + footer


def _cost_model(args: "argparse.Namespace"):
    from repro.serve import ShardCostModel

    return ShardCostModel(
        shard_cost_per_hour=args.shard_cost,
        cluster_overhead_per_hour=args.overhead_cost,
    )


def _cmd_capacity(args: "argparse.Namespace") -> str:
    """``repro capacity``: answer "how many shards and at what cost"
    from measured numbers -- either ``--shard-rps``/``--shard-p99-ms``
    or a ``BENCH_scale.json`` produced by ``benchmarks/bench_scale.py``
    (``--from-report``)."""
    import json

    from repro.core.errors import ValidationError
    from repro.serve import CapacityModel, capacity_report

    if args.from_report:
        with open(args.from_report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        block = report.get("capacity") or report
        model_json = block.get("model")
        if not model_json:
            raise ValidationError(
                f"{args.from_report} has no capacity model block"
            )
        model = CapacityModel(
            model_json["per_shard_rps"],
            model_json["service_p99_s"],
            efficiency={
                int(k): v
                for k, v in (model_json.get("efficiency") or {}).items()
            },
            max_utilization=model_json.get("max_utilization", 0.95),
        )
        source = args.from_report
    else:
        if not args.shard_rps or not args.shard_p99_ms:
            raise ValidationError(
                "capacity needs --shard-rps and --shard-p99-ms "
                "(or --from-report BENCH_scale.json)"
            )
        model = CapacityModel(args.shard_rps, args.shard_p99_ms / 1000.0)
        source = "command line"
    if args.offered_rps:
        loads = [float(part) for part in args.offered_rps.split(",")]
    else:
        loads = [
            model.per_shard_rps * mult for mult in (0.5, 1, 2, 4, 8)
        ]
    target = (args.target_p99_ms or 250.0) / 1000.0
    block = capacity_report(
        model,
        offered_rps=loads,
        target_p99_s=target,
        cost=_cost_model(args),
        max_shards=args.max_shards,
    )
    body = _capacity_table(
        block, f"repro capacity -- model from {source}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(block, fh, indent=2, sort_keys=True)
        body += f"\ncapacity report written to {args.out}"
    return body


def _serve_capacity_report(
    args: "argparse.Namespace",
    achieved_rps: float,
    p99_s: float,
    shards: int,
) -> dict:
    """Capacity block for a live ``repro serve`` run: the measured
    point becomes the per-shard model, swept over load multiples."""
    from repro.serve import CapacityModel, capacity_report

    model = CapacityModel(
        max(achieved_rps, 1e-9) / max(1, shards), max(p99_s, 1e-9)
    )
    target = (
        args.target_p99_ms / 1000.0
        if args.target_p99_ms
        else 5.0 * p99_s
    )
    loads = [achieved_rps * mult for mult in (0.5, 1.0, 2.0, 4.0)]
    return capacity_report(
        model,
        offered_rps=loads,
        target_p99_s=target,
        cost=_cost_model(args),
    )


def _cmd_serve(args: "argparse.Namespace") -> str:
    import json

    from repro.core.api import get_workload, workload_names
    from repro.serve import (
        generate_requests,
        load_requests,
        run_load,
        serve_requests,
        EvaluationService,
    )

    recorder = None
    if args.trace_dir:
        from repro import obs
        from repro.obs.recorder import FlightRecorder

        obs.enable()
        obs.get_tracer().reset()
        obs.get_ledger().reset()
        obs.get_metrics().reset()
        recorder = FlightRecorder()
        recorder.watch_ledger()
        recorder.start()

    batch_size = args.batch_size
    if args.requests:
        with open(args.requests, "r", encoding="utf-8") as fh:
            requests = load_requests(fh.read())
        results, snapshot = serve_requests(
            requests,
            batch_size=batch_size,
            parallel=args.workers,
            cache=args.cache_dir and f"{args.cache_dir}/serve-cache.json",
        )
        measured = (
            float(snapshot.get("throughput_rps") or 0.0),
            float((snapshot.get("latency_s") or {}).get("p99") or 0.0),
            1,
        )
        table = Table(
            ["#", "workload", "status", "digest", "wall (ms)", "metrics"],
            title=f"repro serve -- {len(requests)} request(s) "
            f"from {args.requests}",
        )
        for i, (request, result) in enumerate(zip(requests, results)):
            head = sorted(result.metrics)[:3]
            table.add_row(
                [
                    i,
                    request.workload,
                    result.status,
                    result.config_digest[:12],
                    round(result.wall_time_s * 1000, 2),
                    ", ".join(
                        f"{k}={result.metrics[k]}" for k in head
                    ) or result.error,
                ]
            )
    else:
        workload = get_workload(args.workload)
        requests = generate_requests(
            workload,
            args.num_requests,
            pool_size=args.pool,
            seed=args.seed,
        )
        if (args.shards and args.shards > 1) or args.backend == "process":
            from repro.serve import ShardCluster

            service = ShardCluster(
                num_shards=args.shards or 2,
                backend=args.backend,
                batch_size=batch_size,
                max_queue=max(1, len(requests)),
                parallel=args.workers,
                cache=args.cache_dir and f"{args.cache_dir}/serve-cache.json",
            )
            service.wait_ready()
        else:
            service = EvaluationService(
                batch_size=batch_size,
                max_queue=max(1, len(requests)),
                parallel=args.workers,
                cache=args.cache_dir and f"{args.cache_dir}/serve-cache.json",
            )
        if recorder is not None:
            if hasattr(service, "gauges"):
                recorder.add_source("serve", service.gauges)
        try:
            point = run_load(service, requests, rate_rps=args.rate)
            snapshot = service.snapshot()
        finally:
            service.shutdown()
        measured = (
            float(point["achieved_rps"]),
            float(point["latency_s"]["p99"]),
            snapshot.get("shards") or 1,
        )
        table = Table(
            ["requests", "offered (rps)", "achieved (rps)", "p50 (ms)",
             "p95 (ms)", "p99 (ms)", "errors"],
            title=f"repro serve -- synthetic load, workload "
            f"{workload.name!r} (registered: {len(workload_names())})",
        )
        latency = point["latency_s"]
        table.add_row(
            [
                point["num_requests"],
                "burst" if args.rate is None else round(args.rate, 1),
                round(point["achieved_rps"], 1),
                round(latency["p50"] * 1000, 2),
                round(latency["p95"] * 1000, 2),
                round(latency["p99"] * 1000, 2),
                point["errors"],
            ]
        )
    evaluations = snapshot["evaluations"]
    footer = (
        f"batches: {snapshot['batches']['count']} "
        f"(mean occupancy {snapshot['batches']['mean_occupancy']:.2f}); "
        f"computed {evaluations['computed']}, "
        f"deduped {evaluations['deduped']}, "
        f"cache hits {evaluations['cache_hits']}"
    )
    if "shards" in snapshot:
        footer += (
            f"; shards: {snapshot['shards']} "
            f"(restarts {snapshot['restarts']}, "
            f"replayed {snapshot['replayed']})"
        )
    body = table.render() + "\n" + footer
    if args.capacity_report:
        achieved, p99_s, shard_count = measured
        if achieved > 0 and p99_s > 0:
            report = _serve_capacity_report(
                args, achieved, p99_s, shard_count
            )
            snapshot = dict(snapshot)
            snapshot["capacity"] = report
            body += "\n\n" + _capacity_table(
                report,
                f"capacity plan -- measured {achieved:.1f} rps on "
                f"{shard_count} shard(s)",
            )
        else:
            body += "\ncapacity report skipped: no completed requests"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        body += f"\nmetrics snapshot written to {args.out}"
    if args.trace_dir:
        from repro import obs

        if recorder is not None:
            recorder.stop()
        body += "\n" + _export_observability(args.trace_dir, recorder)
        obs.disable()
    return body


def _cmd_chaos(args: "argparse.Namespace") -> str:
    """``repro chaos``: one seeded chaos campaign against a shard
    cluster -- shard kills, delays and bursts injected at deterministic
    request indices, exactly-once completion asserted in the footer."""
    import json

    from repro.core.api import get_workload
    from repro.resilience import ChaosPolicy
    from repro.serve import generate_requests, run_chaos_campaign

    workload = get_workload(args.workload)
    requests = generate_requests(
        workload,
        args.num_requests,
        pool_size=args.pool,
        seed=args.seed,
    )
    shards = args.shards or 4
    policy = ChaosPolicy.random(
        args.seed, len(requests), shards,
        kills=args.kills, delays=2, bursts=1,
    )
    results, report = run_chaos_campaign(
        requests,
        policy,
        num_shards=shards,
        batch_size=args.batch_size,
        parallel=args.workers,
        cache=args.cache_dir and f"{args.cache_dir}/serve-cache.json",
    )
    table = Table(
        ["requests", "shards", "kills", "lost", "duplicated", "errors",
         "restarts", "replayed", "p99 (ms)"],
        title=f"repro chaos -- workload {workload.name!r}, "
        f"seed {args.seed}",
    )
    table.add_row(
        [
            report["num_requests"],
            shards,
            len(report["kills"]),
            report["lost"],
            report["duplicate_results"],
            report["errors"],
            report["restarts"],
            report["replayed"],
            round(report["latency_s"]["p99"] * 1000, 2),
        ]
    )
    survived = report["lost"] == 0 and report["duplicate_results"] == 0
    footer = (
        "exactly-once: "
        + ("PASS" if survived else "FAIL")
        + f" (completed {report['completed']}/{report['num_requests']}"
        f" + {report['extras']} burst duplicates; schedule: "
        + ", ".join(
            f"{e['action']}@{e['at_request']}" for e in report["policy"]
        )
        + ")"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        footer += f"; chaos report written to {args.out}"
    return table.render() + "\n" + footer


#: Default SLO specs for ``repro obs slo`` when no ``--spec`` file is
#: given: generic serving health objectives.
DEFAULT_SLO_SPECS = (
    {"name": "latency-p99", "objective": "p99_latency", "target": 0.5},
    {"name": "errors", "objective": "error_rate", "target": 0.05},
    {"name": "availability", "objective": "availability",
     "target": 0.99},
)


def _load_obs_file(loader, path: str, what: str):
    """Satellite guard: a corrupt or unreadable observability artifact
    becomes a one-line error + nonzero exit, not a traceback."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read {what} at {path}: {exc}", file=sys.stderr)
        return None


def _obs_main(argv: List[str]) -> int:
    """The ``repro obs`` subcommand family (its own parser: the obs
    verbs take a trace directory, not a paper artifact)."""
    import json
    import os

    from repro.obs import (
        chrome_trace,
        critical_path_report,
        compare_reports,
        load_flight_jsonl,
        load_ledger_jsonl,
        load_trace_jsonl,
        prometheus_text,
        render_summary,
        render_top,
        render_trace,
        select_trace,
    )
    from repro.obs.slo import SLOSpec, evaluate_slos

    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Inspect traces recorded by 'repro serve "
        "--trace-dir' (or any repro.obs export).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    show = sub.add_parser(
        "show", help="render one trace's span tree and ledger events"
    )
    show.add_argument("trace_id", help="trace id (unique prefix accepted)")
    summary = sub.add_parser(
        "summary", help="aggregate span durations across all traces"
    )
    export = sub.add_parser(
        "export", help="re-export collected spans"
    )
    export.add_argument(
        "--format", choices=("chrome", "jsonl", "prom"),
        default="chrome",
        help="chrome/jsonl re-export the spans; prom renders the "
        "exported metrics snapshot as Prometheus text exposition",
    )
    export.add_argument(
        "--out", default=None,
        help="output file (default: stdout)",
    )
    top = sub.add_parser(
        "top",
        help="slowest requests with their critical-path phase split",
    )
    top.add_argument(
        "--top", type=int, default=10, help="how many requests to list"
    )
    slo = sub.add_parser(
        "slo",
        help="evaluate SLO burn rates over the flight-recorder samples",
    )
    slo.add_argument(
        "--spec", default=None,
        help="JSON file with a list of SLO spec objects "
        "(default: built-in latency/error/availability objectives)",
    )
    critical = sub.add_parser(
        "critical-path",
        help="aggregate critical-path phase report "
        "(optionally vs a baseline trace dir)",
    )
    critical.add_argument(
        "--top", type=int, default=10, help="how many requests to list"
    )
    critical.add_argument(
        "--baseline", default=None,
        help="another trace dir to attribute a regression against",
    )
    for verb in (show, summary, export, top, slo, critical):
        verb.add_argument(
            "--trace-dir", default="obs",
            help="directory written by 'repro serve --trace-dir' "
            "(default: ./obs)",
        )
    args = parser.parse_args(argv)

    if args.verb == "export" and args.format == "prom":
        metrics_path = os.path.join(args.trace_dir, METRICS_FILE)
        if not os.path.exists(metrics_path):
            print(
                f"no metrics snapshot at {metrics_path}; record one "
                f"with 'repro serve --trace-dir {args.trace_dir}'",
                file=sys.stderr,
            )
            return 1

        def _load_metrics(path):
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)

        snapshot = _load_obs_file(
            _load_metrics, metrics_path, "metrics snapshot"
        )
        if snapshot is None:
            return 1
        payload = prometheus_text(snapshot)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
            print(f"wrote {args.out}")
        else:
            print(payload, end="")
        return 0

    if args.verb == "slo":
        flight_path = os.path.join(args.trace_dir, FLIGHT_FILE)
        if not os.path.exists(flight_path):
            print(
                f"no flight recording at {flight_path}; record one "
                f"with 'repro serve --trace-dir {args.trace_dir}'",
                file=sys.stderr,
            )
            return 1
        flight = _load_obs_file(
            load_flight_jsonl, flight_path, "flight recording"
        )
        if flight is None:
            return 1
        spec_dicts = DEFAULT_SLO_SPECS
        if args.spec:
            def _load_specs(path):
                with open(path, "r", encoding="utf-8") as fh:
                    return json.load(fh)

            spec_dicts = _load_obs_file(
                _load_specs, args.spec, "SLO spec file"
            )
            if spec_dicts is None:
                return 1
        specs = [SLOSpec.from_json(d) for d in spec_dicts]
        statuses = evaluate_slos(specs, flight["samples"])
        breached = False
        print(
            f"{'slo':<16} {'objective':<14} {'target':>10} "
            f"{'state':<9} burn/window"
        )
        for status in statuses:
            burns = "  ".join(
                f"{window:g}s={result['burn']:.2f}x"
                for window, result in sorted(status["windows"].items())
            )
            print(
                f"{status['name']:<16} {status['objective']:<14} "
                f"{status['target']:>10g} {status['state']:<9} {burns}"
            )
            breached = breached or status["state"] == "breached"
        dumps = flight.get("dumps", [])
        print(
            f"samples: {len(flight['samples'])}   "
            f"flight dumps: {len(dumps)}"
        )
        return 2 if breached else 0

    trace_path = os.path.join(args.trace_dir, TRACE_FILE)
    if not os.path.exists(trace_path):
        print(
            f"no trace at {trace_path}; record one with "
            f"'repro serve --trace-dir {args.trace_dir}'",
            file=sys.stderr,
        )
        return 1
    spans = _load_obs_file(load_trace_jsonl, trace_path, "trace")
    if spans is None:
        return 1
    ledger_path = os.path.join(args.trace_dir, LEDGER_FILE)
    events = []
    if os.path.exists(ledger_path):
        events = _load_obs_file(
            load_ledger_jsonl, ledger_path, "ledger"
        )
        if events is None:
            return 1

    if args.verb == "show":
        selected = select_trace(spans, args.trace_id)
        if not selected:
            known = sorted({s["trace_id"] for s in spans})
            print(
                f"trace {args.trace_id!r} not found "
                f"(known: {', '.join(known) or 'none'})",
                file=sys.stderr,
            )
            return 1
        tid = selected[0]["trace_id"]
        print(f"trace {tid}")
        print(
            render_trace(
                selected,
                [e for e in events if e.get("trace_id") == tid],
            )
        )
    elif args.verb == "summary":
        print(render_summary(spans, events))
    elif args.verb == "top":
        report = critical_path_report(spans, top=args.top)
        samples = []
        flight_path = os.path.join(args.trace_dir, FLIGHT_FILE)
        if os.path.exists(flight_path):
            flight = _load_obs_file(
                load_flight_jsonl, flight_path, "flight recording"
            )
            if flight is None:
                return 1
            samples = flight["samples"]
        print(render_top(report, samples))
    elif args.verb == "critical-path":
        report = critical_path_report(spans, top=args.top)
        if args.baseline:
            base_path = os.path.join(args.baseline, TRACE_FILE)
            if not os.path.exists(base_path):
                print(
                    f"no baseline trace at {base_path}",
                    file=sys.stderr,
                )
                return 1
            base_spans = _load_obs_file(
                load_trace_jsonl, base_path, "baseline trace"
            )
            if base_spans is None:
                return 1
            baseline = critical_path_report(base_spans, top=args.top)
            report = dict(report)
            report["vs_baseline"] = compare_reports(baseline, report)
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if args.format == "chrome":
            payload = json.dumps(
                chrome_trace(spans), indent=2, sort_keys=True
            )
        else:
            payload = "\n".join(
                json.dumps(s, sort_keys=True) for s in spans
            )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.out}")
        else:
            print(payload)
    return 0


def _load_campaign_graph(path: str):
    """Load a campaign spec: ``.json`` files through
    :meth:`~repro.campaign.CampaignGraph.from_json`, ``.py`` files by
    executing them and taking their ``GRAPH`` object (or calling their
    ``build()``)."""
    import json
    import runpy

    from repro.campaign import CampaignGraph
    from repro.core.errors import ValidationError

    if path.endswith(".py"):
        namespace = runpy.run_path(path)
        graph = namespace.get("GRAPH")
        if graph is None and callable(namespace.get("build")):
            graph = namespace["build"]()
        if not isinstance(graph, CampaignGraph):
            raise ValidationError(
                f"{path} must define a CampaignGraph as GRAPH or "
                "return one from build()"
            )
        return graph
    with open(path, "r", encoding="utf-8") as fh:
        return CampaignGraph.from_json(json.load(fh))


def _campaign_main(argv: List[str]) -> int:
    """The ``repro campaign`` subcommand family: run/resume a declarative
    campaign graph spec, inspect a checkpoint's progress, or emit the
    worked composite example (DSE -> hetero -> Pareto)."""
    import json

    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Run declarative campaign DAGs (repro.campaign) "
        "from a JSON or .py graph spec.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="execute a campaign graph spec")
    resume = sub.add_parser(
        "resume",
        help="re-execute a spec against its checkpoint (completed "
        "nodes are restored, not re-run)",
    )
    status = sub.add_parser(
        "status", help="show a spec's progress against a checkpoint"
    )
    example = sub.add_parser(
        "example",
        help="print the composite example graph (DSE -> hetero -> "
        "Pareto) as a runnable JSON spec",
    )
    for verb in (run, resume, status):
        verb.add_argument("spec", help="campaign graph spec (.json or .py)")
    for verb in (run, resume):
        verb.add_argument(
            "--workers", type=int, default=None,
            help="evaluate each layer over a process pool this wide "
            "(default: serial)",
        )
        verb.add_argument(
            "--cache", default=None,
            help="path for the content-addressed result cache",
        )
        verb.add_argument(
            "--serve", action="store_true",
            help="route evaluations through a live EvaluationService "
            "(admission control, micro-batching, dedup)",
        )
        verb.add_argument(
            "--batch-size", type=int, default=8,
            help="--serve: micro-batch size",
        )
        verb.add_argument(
            "--trace-dir", default=None,
            help="record the run under repro.obs tracing and write "
            "trace.jsonl / ledger.jsonl / trace.chrome.json here",
        )
        verb.add_argument(
            "--out", default=None,
            help="write the campaign run report JSON here",
        )
    run.add_argument(
        "--checkpoint", default=None,
        help="JSON checkpoint store for node results (enables resume)",
    )
    resume.add_argument(
        "--checkpoint", required=True,
        help="JSON checkpoint store written by a previous run",
    )
    status.add_argument("--checkpoint", required=True)
    example.add_argument(
        "--out", default=None,
        help="write the example spec here (default: stdout)",
    )
    args = parser.parse_args(argv)

    if args.verb == "example":
        from repro.campaign import composite_campaign_graph

        payload = json.dumps(
            composite_campaign_graph().to_json(), indent=2, sort_keys=True
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.out}")
        else:
            print(payload)
        return 0

    graph = _load_campaign_graph(args.spec)

    if args.verb == "status":
        from repro.resilience import CheckpointStore

        store = CheckpointStore(args.checkpoint)
        done = set(store.completed_keys())
        table = Table(
            ["node", "kind", "state"],
            title=f"repro campaign status -- {graph.name} "
            f"({len(done)} checkpointed record(s))",
        )
        completed = 0
        for node in graph.nodes:
            key = getattr(node, "key", None) or node.name
            checkpointed = key in done or any(
                k.startswith(f"{node.name}|") for k in done
            )
            state = "done" if checkpointed else (
                "recomputed" if node.kind == "reduce" else "pending"
            )
            completed += int(checkpointed)
            table.add_row([node.name, node.kind, state])
        print(table.render())
        print(f"{completed}/{len(graph)} nodes checkpointed")
        if store.recovered:
            print(f"checkpoint recovered: {store.salvaged} intact "
                  "record(s) salvaged from a damaged file")
        return 0

    from repro.campaign import GraphRunner

    if args.trace_dir:
        from repro import obs

        obs.enable()
        obs.get_tracer().reset()
        obs.get_ledger().reset()

    checkpoint = None
    if args.checkpoint:
        from repro.resilience import CheckpointStore

        checkpoint = CheckpointStore(args.checkpoint)
    service = None
    runner = None
    try:
        if args.serve:
            from repro.serve import EvaluationService

            service = EvaluationService(
                batch_size=args.batch_size,
                max_queue=max(16, 2 * len(graph)),
                parallel=args.workers,
                cache=args.cache,
            )
            runner = GraphRunner(service=service, checkpoint=checkpoint)
        else:
            runner = GraphRunner(
                parallel=args.workers, cache=args.cache,
                checkpoint=checkpoint,
            )
        report = runner.run(graph)
    finally:
        if runner is not None:
            runner.close()
        if service is not None:
            service.shutdown()

    counts = report.counts()
    table = Table(
        ["node", "kind", "status", "resumed", "attempts", "backtracks",
         "detail"],
        title=f"repro campaign {args.verb} -- {graph.name} "
        f"({len(report.layers)} layer(s))",
    )
    for name, result in report.results.items():
        detail = result.error or ""
        if result.ok and result.kind == "eval":
            head = sorted(result.value.metrics)[:2]
            detail = ", ".join(
                f"{k}={result.value.metrics[k]}" for k in head
            )
        table.add_row(
            [name, result.kind, result.status, "yes" if result.resumed
             else "", result.attempts, result.backtracks, detail]
        )
    body = table.render()
    body += (
        f"\n{counts['ok']}/{counts['nodes']} ok, "
        f"{counts['error']} error(s), {counts['skipped']} skipped, "
        f"{counts['resumed']} resumed, "
        f"{counts['backtracks']} backtrack(s)"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        body += f"\nrun report written to {args.out}"
    if args.trace_dir:
        from repro import obs

        body += "\n" + _export_observability(args.trace_dir)
        obs.disable()
    print(body)
    return 0 if report.ok else 1


def _demo_imc() -> None:
    import numpy as np

    from repro.imc.crossbar import AnalogCrossbar, CrossbarConfig

    xbar = AnalogCrossbar(CrossbarConfig(rows=32, cols=32), seed=11)
    rng = np.random.default_rng(11)
    xbar.program_weights(rng.uniform(-1, 1, (32, 32)))
    xbar.mvm_batch(rng.uniform(-1, 1, (16, 32)))
    for x in rng.uniform(-1, 1, (4, 32)):
        xbar.mvm(x)


def _demo_dna() -> None:
    import numpy as np

    from repro.dna.ecc import ReedSolomonCodec
    from repro.dna.editdistance import levenshtein_banded

    rng = np.random.default_rng(12)
    reads = [
        "".join("ACGT"[i] for i in rng.integers(0, 4, 400))
        for _ in range(12)
    ]
    for a in reads[:6]:
        for b in reads[6:]:
            levenshtein_banded(a, b, band=24)
    codec = ReedSolomonCodec(255, 223)
    for _ in range(8):
        message = bytes(int(v) for v in rng.integers(0, 256, 223))
        codeword = bytearray(codec.encode(message))
        codeword[3] ^= 0xA5
        codec.decode(bytes(codeword))


def _demo_axc() -> None:
    import numpy as np

    from repro.axc.htconv import FovealRegion, htconv_x2

    rng = np.random.default_rng(13)
    x = rng.normal(size=(8, 24, 24))
    kernel = rng.normal(size=(8, 3, 3))
    fovea = FovealRegion.centered(24, 24, 0.25)
    for _ in range(4):
        htconv_x2(x, kernel, fovea)


def _demo_sparta() -> None:
    from repro.sparta.kernels import bfs_tasks, random_graph
    from repro.sparta.simulator import simulate

    region = bfs_tasks(random_graph(128, seed=14), seed=14)
    simulate(region)
    simulate(region, enable_cache=False, memory_latency=200)
    # Compiled tier: either a jit.compile histogram (numba installed) or
    # a jit.fallback counter shows up in the profile table.
    simulate(region, impl="jit")


def _demo_hls() -> None:
    from repro.hls.ir import OpKind
    from repro.hls.kernels import _gemm_body
    from repro.hls.scheduling import schedule_list

    body = _gemm_body(unroll_k=8)
    for muls in (1, 2, 4):
        schedule_list(body, {OpKind.MUL: muls, OpKind.ADD: 2})


def _demo_exec() -> None:
    from repro.exec import ResultCache
    from repro.imc.sweep import crossbar_sweep, sweep_grid

    cache = ResultCache()
    specs = sweep_grid(6, rows=24, cols=24, num_inputs=4)
    crossbar_sweep(specs, cache=cache)  # cold: all misses
    crossbar_sweep(specs, cache=cache)  # warm: all hits


_PROFILE_DEMOS = {
    "imc": _demo_imc,
    "dna": _demo_dna,
    "axc": _demo_axc,
    "sparta": _demo_sparta,
    "hls": _demo_hls,
    "exec": _demo_exec,
}


def _cmd_profile(args: "argparse.Namespace") -> str:
    from repro import obs
    from repro.obs.report import render_profile

    names = [args.demo] if args.demo else sorted(_PROFILE_DEMOS)
    tracer = obs.enable_tracing()
    registry = obs.enable_metrics()
    tracer.reset()
    registry.reset()
    try:
        for name in names:
            root = tracer.start_span(
                name,
                trace_id=obs.derive_trace_id(f"profile/{name}"),
                parent_id="",
            )
            with tracer.activate(root.context):
                _PROFILE_DEMOS[name]()
            tracer.end_span(root)
        return render_profile(tracer.spans(), registry.snapshot())
    finally:
        obs.disable_tracing()
        obs.disable_metrics()
        tracer.reset()
        registry.reset()


def _cmd_survey_csv() -> str:
    from repro.survey import load_dataset
    from repro.survey.io import to_csv

    return to_csv(load_dataset()).rstrip()


_COMMANDS = {
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "taxonomy": _cmd_fig2,
    "fig7": _cmd_fig7,
    "table1": _cmd_table1,
    "scf": _cmd_scf,
    "survey-csv": _cmd_survey_csv,
    "faults": _cmd_faults,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "obs":
        return _obs_main(argv[1:])
    if argv and argv[0] == "campaign":
        return _campaign_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate ICSC Flagship 2 paper artifacts.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(_COMMANDS) + [
            "campaign", "capacity", "chaos", "exec", "obs", "profile",
            "serve",
        ],
        help="which paper artifact to regenerate ('exec' runs the "
        "parallel evaluation engine demo, 'profile' times the "
        "instrumented kernels on short demo workloads, 'serve' runs "
        "the micro-batched evaluation service -- one-shot with "
        "--requests FILE, synthetic load otherwise; 'chaos' runs a "
        "seeded fault-injection campaign against a shard cluster; "
        "'capacity' plans shard counts and cost per million requests "
        "from measured throughput/latency; 'obs' inspects recorded "
        "traces: show/summary/export)",
    )
    parser.add_argument(
        "demo",
        nargs="?",
        default=None,
        choices=sorted(_PROFILE_DEMOS),
        help="profile: which kernel demo to run (default: all)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="exec: pool size (default: CPU count); serve: batch "
        "execution workers (default: serial)",
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=16,
        help="exec: number of campaign cells to sweep",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="exec: directory for the persistent result cache",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="exec: disable the content-addressed result cache",
    )
    parser.add_argument(
        "--requests",
        default=None,
        help="serve: JSON file holding an array of evaluation requests "
        "(one-shot mode)",
    )
    parser.add_argument(
        "--workload",
        default="imc-crossbar",
        help="serve: workload name for the synthetic load generator",
    )
    parser.add_argument(
        "--num-requests",
        type=int,
        default=24,
        help="serve: synthetic request count",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="serve: offered load in requests/second (default: burst)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="serve: micro-batch size",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve/chaos: shard count (serve defaults to an unsharded "
        "service, chaos to 4 supervised shards)",
    )
    parser.add_argument(
        "--backend",
        choices=("inproc", "process"),
        default="inproc",
        help="serve: shard backend -- 'process' hosts each shard in "
        "its own worker process (implies a cluster, default 2 shards)",
    )
    parser.add_argument(
        "--capacity-report",
        action="store_true",
        help="serve: append a capacity/TCO plan derived from the "
        "measured throughput and p99",
    )
    parser.add_argument(
        "--target-p99-ms",
        type=float,
        default=None,
        help="serve/capacity: target p99 latency in ms (serve default: "
        "5x the measured p99; capacity default: 250)",
    )
    parser.add_argument(
        "--shard-rps",
        type=float,
        default=None,
        help="capacity: measured per-shard throughput (rps)",
    )
    parser.add_argument(
        "--shard-p99-ms",
        type=float,
        default=None,
        help="capacity: measured service-time p99 (ms)",
    )
    parser.add_argument(
        "--from-report",
        default=None,
        help="capacity: read the model from a BENCH_scale.json (or any "
        "JSON with a capacity block)",
    )
    parser.add_argument(
        "--offered-rps",
        default=None,
        help="capacity: comma-separated offered loads to plan for "
        "(default: 0.5x..8x one shard's throughput)",
    )
    parser.add_argument(
        "--shard-cost",
        type=float,
        default=0.50,
        help="capacity/serve: cost per shard-hour (default: 0.50)",
    )
    parser.add_argument(
        "--overhead-cost",
        type=float,
        default=0.20,
        help="capacity/serve: fixed cluster overhead per hour "
        "(default: 0.20)",
    )
    parser.add_argument(
        "--max-shards",
        type=int,
        default=1024,
        help="capacity: largest shard count to consider",
    )
    parser.add_argument(
        "--kills",
        type=int,
        default=1,
        help="chaos: shard kills in the seeded schedule",
    )
    parser.add_argument(
        "--pool",
        type=int,
        default=6,
        help="serve: distinct configurations in the synthetic pool",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="serve: load-generator seed",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="serve: write the service metrics snapshot JSON here",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="serve: record the run under repro.obs tracing and write "
        "trace.jsonl / ledger.jsonl / trace.chrome.json here",
    )
    args = parser.parse_args(argv)
    if args.demo is not None and args.artifact != "profile":
        parser.error("a demo name is only valid with 'profile'")
    if args.artifact == "exec":
        print(_cmd_exec(args))
    elif args.artifact == "profile":
        print(_cmd_profile(args))
    elif args.artifact == "serve":
        print(_cmd_serve(args))
    elif args.artifact == "chaos":
        print(_cmd_chaos(args))
    elif args.artifact == "capacity":
        print(_cmd_capacity(args))
    else:
        print(_COMMANDS[args.artifact]())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
