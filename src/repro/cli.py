"""Command line: ``python -m repro <verb> [flags]``.

``repro --help`` lists the verbs and ``repro <verb> --help`` the flags
that verb reads.  Exit status: 0 on success; 1 when the verb fails with
a :class:`~repro.core.errors.ReproError` (one ``repro <verb>: error:``
line on stderr, no traceback) or a campaign node fails; 2 for a usage
error, and from ``repro obs slo`` when an objective is breached.  Any
other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Any, Callable, Iterator, List, Optional

from repro.core.errors import ReproError, ValidationError
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


#: File names inside a ``--trace-dir`` directory; shared by the
#: trace session that writes them and the ``repro obs`` verbs.
TRACE_FILE = "trace.jsonl"
LEDGER_FILE = "ledger.jsonl"
CHROME_FILE = "trace.chrome.json"
METRICS_FILE = "metrics.json"
FLIGHT_FILE = "flight.jsonl"


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read(what: str, path: str, load: Callable[[str], Any] = _load_json):
    """``load(path)`` for every file the CLI reads: an unreadable or
    malformed file -- one nested too deep to parse included -- becomes
    one :class:`ValidationError` naming *what* and *path*."""
    try:
        return load(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read {what} at {path}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> int:
    """Write *text* to the file *out* (and say so), else to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


@contextmanager
def _trace_session(
    trace_dir: Optional[str], *, flight: bool = False
) -> Iterator[SimpleNamespace]:
    """``--trace-dir``: run the body with spans, ledger and metrics
    enabled and reset (plus a flight recorder, with *flight*).  On
    success the files land in *trace_dir* and ``session.footer`` says
    what was written; on every exit the recorder stops and the three
    pillars are disabled again."""
    session = SimpleNamespace(recorder=None, footer="")
    if not trace_dir:
        yield session
        return
    from repro import obs

    obs.enable()
    tracer, ledger = obs.get_tracer(), obs.get_ledger()
    tracer.reset()
    obs.get_metrics().reset()
    recorder = None
    try:
        if flight:
            from repro.obs.recorder import FlightRecorder

            recorder = session.recorder = FlightRecorder()
            recorder.watch_ledger()
            recorder.start()
        yield session
        if recorder is not None:
            recorder.stop()
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
        session.footer = (
            f"\ntrace: {spans} spans / {events} events -> {trace_dir} "
            f"(chrome: {chrome_path}; inspect with 'repro obs summary "
            f"--trace-dir {trace_dir}')"
        )
        if recorder is not None:
            samples = recorder.export_jsonl(
                os.path.join(trace_dir, FLIGHT_FILE)
            )
            session.footer += f"; flight recorder: {samples} samples/dumps"
    finally:
        if recorder is not None:
            recorder.stop()
        obs.disable()


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


def _load_capacity_model(path: str):
    """The :class:`~repro.serve.CapacityModel` stored in a
    ``BENCH_scale.json`` (or any JSON with a capacity block)."""
    from repro.serve import CapacityModel

    report = _load_json(path)
    try:
        model_json = (report.get("capacity") or report)["model"]
        return CapacityModel(
            model_json["per_shard_rps"],
            model_json["service_p99_s"],
            efficiency={
                int(k): v
                for k, v in (model_json.get("efficiency") or {}).items()
            },
            max_utilization=model_json.get("max_utilization", 0.95),
        )
    except (AttributeError, LookupError, TypeError) as exc:
        raise ValidationError(
            f"no usable capacity model block ({exc!r})"
        ) from exc


def _cmd_capacity(args: "argparse.Namespace") -> str:
    """``repro capacity``: answer "how many shards and at what cost"
    from measured numbers -- either ``--shard-rps``/``--shard-p99-ms``
    or a ``BENCH_scale.json`` produced by ``benchmarks/bench_scale.py``
    (``--from-report``)."""
    from repro.serve import CapacityModel, capacity_report

    if args.from_report:
        model = _read(
            "capacity report", args.from_report, _load_capacity_model
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
    loads = args.offered_rps or [
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


def _serve_cache(args: "argparse.Namespace") -> Optional[str]:
    """The result-cache file ``serve`` and ``chaos`` keep under
    ``--cache-dir`` (None without one)."""
    return args.cache_dir and os.path.join(args.cache_dir, "serve-cache.json")


def _cmd_serve(args: "argparse.Namespace") -> str:
    with _trace_session(args.trace_dir, flight=True) as session:
        body = _serve(args, session.recorder)
    return body + session.footer


def _serve(args: "argparse.Namespace", recorder) -> str:
    from pathlib import Path

    from repro.core.api import get_workload, workload_names
    from repro.serve import (
        generate_requests,
        load_requests,
        run_load,
        serve_requests,
        EvaluationService,
    )

    batch_size = args.batch_size
    cache = _serve_cache(args)
    if args.requests:
        requests = _read(
            "request file",
            args.requests,
            lambda path: load_requests(Path(path).read_text("utf-8")),
        )
        results, snapshot = serve_requests(
            requests,
            batch_size=batch_size,
            parallel=args.workers,
            cache=cache,
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
                cache=cache,
            )
            service.wait_ready()
        else:
            service = EvaluationService(
                batch_size=batch_size,
                max_queue=max(1, len(requests)),
                parallel=args.workers,
                cache=cache,
            )
        if recorder is not None and hasattr(service, "gauges"):
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
    return body


def _cmd_chaos(args: "argparse.Namespace") -> str:
    """``repro chaos``: one seeded chaos campaign against a shard
    cluster -- shard kills, delays and bursts injected at deterministic
    request indices, exactly-once completion asserted in the footer."""
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
        cache=_serve_cache(args),
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


def _obs_file(trace_dir: str, name: str, what: str, load, *,
              optional: bool = False):
    """Read artifact *name* of a ``--trace-dir`` directory; a missing
    one is None when *optional*, else an error saying how to record
    it."""
    path = os.path.join(trace_dir, name)
    if os.path.exists(path):
        return _read(what, path, load)
    if optional:
        return None
    raise ValidationError(
        f"no {what} at {path}; record one with "
        f"'repro serve --trace-dir {trace_dir}'"
    )


def _obs_spans(trace_dir: str, what: str = "trace") -> List[dict]:
    from repro.obs import load_trace_jsonl

    return _obs_file(trace_dir, TRACE_FILE, what, load_trace_jsonl)


def _obs_events(trace_dir: str) -> List[dict]:
    from repro.obs import load_ledger_jsonl

    return _obs_file(
        trace_dir, LEDGER_FILE, "ledger", load_ledger_jsonl, optional=True
    ) or []


def _obs_flight(trace_dir: str, *, optional: bool = False):
    from repro.obs import load_flight_jsonl

    return _obs_file(
        trace_dir, FLIGHT_FILE, "flight recording", load_flight_jsonl,
        optional=optional,
    )


def _obs_show(args: "argparse.Namespace") -> str:
    from repro.obs import render_trace, select_trace

    spans = _obs_spans(args.trace_dir)
    selected = select_trace(spans, args.trace_id)
    if not selected:
        known = sorted({s["trace_id"] for s in spans})
        raise ValidationError(
            f"trace {args.trace_id!r} not found "
            f"(known: {', '.join(known) or 'none'})"
        )
    tid = selected[0]["trace_id"]
    events = _obs_events(args.trace_dir)
    return f"trace {tid}\n" + render_trace(
        selected, [e for e in events if e.get("trace_id") == tid]
    )


def _obs_summary(args: "argparse.Namespace") -> str:
    from repro.obs import render_summary

    return render_summary(
        _obs_spans(args.trace_dir), _obs_events(args.trace_dir)
    )


def _obs_top(args: "argparse.Namespace") -> str:
    from repro.obs import critical_path_report, render_top

    report = critical_path_report(_obs_spans(args.trace_dir), top=args.top)
    flight = _obs_flight(args.trace_dir, optional=True)
    return render_top(report, flight["samples"] if flight else [])


def _obs_critical_path(args: "argparse.Namespace") -> str:
    from repro.obs import compare_reports, critical_path_report

    report = critical_path_report(_obs_spans(args.trace_dir), top=args.top)
    if args.baseline:
        baseline = critical_path_report(
            _obs_spans(args.baseline, "baseline trace"), top=args.top
        )
        report = dict(report, vs_baseline=compare_reports(baseline, report))
    return json.dumps(report, indent=2, sort_keys=True)


def _obs_export(args: "argparse.Namespace") -> int:
    from repro.obs import chrome_trace, prometheus_text

    if args.format == "prom":
        snapshot = _obs_file(
            args.trace_dir, METRICS_FILE, "metrics snapshot", _load_json
        )
        return _emit(prometheus_text(snapshot), args.out)
    spans = _obs_spans(args.trace_dir)
    if args.format == "chrome":
        payload = json.dumps(chrome_trace(spans), indent=2, sort_keys=True)
    else:
        payload = "\n".join(json.dumps(s, sort_keys=True) for s in spans)
    return _emit(payload + "\n", args.out)


def _obs_slo(args: "argparse.Namespace") -> int:
    from repro.obs.slo import SLOSpec, evaluate_slos

    flight = _obs_flight(args.trace_dir)
    spec_dicts = (
        _read("SLO spec file", args.spec) if args.spec
        else DEFAULT_SLO_SPECS
    )
    if not isinstance(spec_dicts, (list, tuple)):
        raise ValidationError("an SLO spec file holds a JSON list")
    statuses = evaluate_slos(
        [SLOSpec.from_json(d) for d in spec_dicts], flight["samples"]
    )
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


def _load_campaign_graph(path: str):
    """Load a campaign spec: ``.json`` files through
    :meth:`~repro.campaign.CampaignGraph.from_json`, ``.py`` files by
    executing them and taking their ``GRAPH`` object (or calling their
    ``build()``)."""
    import runpy

    from repro.campaign import CampaignGraph

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
    return CampaignGraph.from_json(_read("campaign spec", path))


def _campaign_example(args: "argparse.Namespace") -> int:
    from repro.campaign import composite_campaign_graph

    payload = json.dumps(
        composite_campaign_graph().to_json(), indent=2, sort_keys=True
    )
    return _emit(payload + "\n", args.out)


def _campaign_status(args: "argparse.Namespace") -> str:
    from repro.resilience import CheckpointStore

    graph = _load_campaign_graph(args.spec)
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
    lines = [table.render(), f"{completed}/{len(graph)} nodes checkpointed"]
    if store.recovered:
        lines.append(
            f"checkpoint recovered: {store.salvaged} intact "
            "record(s) salvaged from a damaged file"
        )
    return "\n".join(lines)


def _campaign_run(args: "argparse.Namespace") -> int:
    """``campaign run`` and ``campaign resume``: one pass of the graph,
    restoring what the checkpoint already holds."""
    from repro.campaign import GraphRunner

    graph = _load_campaign_graph(args.spec)
    with _trace_session(args.trace_dir) as session:
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
        title=f"{args.prog} -- {graph.name} "
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
    print(body + session.footer)
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


class _FileOrLoad(argparse.Action):
    """Store the value, and make ``serve --requests FILE`` together with
    a synthetic-load or cluster flag a usage error: the file is served
    as given, unsharded, so the flag would be silently ignored."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        given = vars(namespace).setdefault("load_flags", [])
        given.append(self.option_strings[0])
        if "--requests" in given and len(given) > 1:
            ignored = ", ".join(f for f in given if f != "--requests")
            parser.error(f"--requests FILE cannot be combined with {ignored}")


def _printed(render: Callable[["argparse.Namespace"], str]):
    """A verb handler printing what ``render(args)`` returns."""

    def run(args: "argparse.Namespace") -> int:
        print(render(args))
        return 0

    return run


#: The paper artifacts: verb -> (renderer, help).
_ARTIFACTS = {
    "fig1": (_cmd_fig1, "Fig. 1: SotA accelerator efficiency per "
             "platform class"),
    "fig2": (_cmd_fig2, "Fig. 2: 512x512 MVM energy per "
             "processor-memory organization"),
    "fig7": (_cmd_fig7, "Fig. 7: RISC-V DL accelerators per power band"),
    "table1": (_cmd_table1, "Table I: HTCONV vs FPGA SotA"),
    "scf": (_cmd_scf, "Fig. 8: SCF scale-up, NoC vs AXI"),
    "survey-csv": (_cmd_survey_csv, "the accelerator survey as CSV"),
    "faults": (_cmd_faults, "fault-injection sweep: hetero storage "
               "faults and IMC stuck-at cells"),
}


def _rates(text: str) -> List[float]:
    """``--offered-rps`` values: comma-separated numbers."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """The whole ``repro`` command tree.  Each leaf parser sets ``run``
    (its handler, ``args -> exit code``) and ``prog`` (its name in
    error messages)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the ICSC Flagship 2 paper artifacts and "
        "drive the serving, campaign and observability stacks.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    def verb(group, name, run, help, parents=(), **kwargs):
        sub = group.add_parser(
            name, help=help, description=help, parents=list(parents),
            **kwargs,
        )
        sub.set_defaults(run=run, prog=sub.prog)
        return sub

    for name, (render, help) in _ARTIFACTS.items():
        verb(
            verbs, name, _printed(lambda _args, render=render: render()),
            help, aliases=["taxonomy"] if name == "fig2" else [],
        )

    exe = verb(
        verbs, "exec", _printed(_cmd_exec),
        "parallel evaluation engine demo: an IMC crossbar campaign, "
        "serial vs pooled vs cached",
    )
    exe.add_argument("--workers", type=int, default=None,
                     help="pool size (default: CPU count)")
    exe.add_argument("--cells", type=int, default=16,
                     help="number of campaign cells to sweep")
    exe.add_argument("--cache-dir", default=None,
                     help="directory for the persistent result cache")
    exe.add_argument("--no-cache", action="store_true",
                     help="disable the content-addressed result cache")

    profile = verb(
        verbs, "profile", _printed(_cmd_profile),
        "trace and time the instrumented kernels on short demo workloads",
    )
    profile.add_argument(
        "demo", nargs="?", default=None, choices=sorted(_PROFILE_DEMOS),
        help="which kernel demo to run (default: all)",
    )

    load = argparse.ArgumentParser(add_help=False)
    load.add_argument(
        "--workload", default="imc-crossbar", action=_FileOrLoad,
        help="workload name for the synthetic load generator",
    )
    load.add_argument("--num-requests", type=int, default=24,
                      action=_FileOrLoad, help="synthetic request count")
    load.add_argument(
        "--pool", type=int, default=6, action=_FileOrLoad,
        help="distinct configurations in the synthetic pool",
    )
    load.add_argument("--seed", type=int, default=0, action=_FileOrLoad,
                      help="load-generator (and chaos schedule) seed")
    load.add_argument(
        "--shards", type=int, default=None, action=_FileOrLoad,
        help="shard count (serve: unsharded by default; chaos: 4)",
    )
    load.add_argument("--batch-size", type=int, default=8,
                      help="micro-batch size")
    load.add_argument(
        "--workers", type=int, default=None,
        help="batch execution workers (default: serial)",
    )
    load.add_argument(
        "--cache-dir", default=None,
        help="directory for the persistent serve result cache",
    )
    load.add_argument("--out", default=None,
                      help="write the run's JSON report here")
    cost = argparse.ArgumentParser(add_help=False)
    cost.add_argument(
        "--target-p99-ms", type=float, default=None,
        help="target p99 latency in ms (serve default: 5x the measured "
        "p99; capacity default: 250)",
    )
    cost.add_argument("--shard-cost", type=float, default=0.50,
                      help="cost per shard-hour (default: 0.50)")
    cost.add_argument(
        "--overhead-cost", type=float, default=0.20,
        help="fixed cluster overhead per hour (default: 0.20)",
    )

    serve = verb(
        verbs, "serve", _printed(_cmd_serve),
        "run the micro-batched evaluation service: one-shot with "
        "--requests FILE, synthetic load otherwise",
        parents=[load, cost],
    )
    serve.add_argument(
        "--requests", default=None, action=_FileOrLoad,
        help="JSON file holding an array of evaluation requests",
    )
    serve.add_argument(
        "--rate", type=float, default=None, action=_FileOrLoad,
        help="offered load in requests/second (default: burst)",
    )
    serve.add_argument(
        "--backend", choices=("inproc", "process"), default="inproc",
        action=_FileOrLoad,
        help="shard backend; 'process' hosts each shard in its own "
        "worker process (implies a cluster, default 2 shards)",
    )
    serve.add_argument(
        "--capacity-report", action="store_true",
        help="append a capacity/TCO plan derived from the measured "
        "throughput and p99",
    )
    serve.add_argument(
        "--trace-dir", default=None,
        help="record the run under repro.obs and write traces, ledger, "
        "metrics and flight recording here",
    )

    chaos = verb(
        verbs, "chaos", _printed(_cmd_chaos),
        "seeded fault-injection campaign against a shard cluster",
        parents=[load],
    )
    chaos.add_argument("--kills", type=int, default=1,
                       help="shard kills in the seeded schedule")

    capacity = verb(
        verbs, "capacity", _printed(_cmd_capacity),
        "plan shard counts and cost per million requests from measured "
        "throughput and latency",
        parents=[cost],
    )
    capacity.add_argument("--shard-rps", type=float, default=None,
                          help="measured per-shard throughput (rps)")
    capacity.add_argument("--shard-p99-ms", type=float, default=None,
                          help="measured service-time p99 (ms)")
    capacity.add_argument(
        "--from-report", default=None,
        help="read the model from a BENCH_scale.json (or any JSON with "
        "a capacity block)",
    )
    capacity.add_argument(
        "--offered-rps", type=_rates, default=None,
        help="comma-separated offered loads to plan for (default: "
        "0.5x..8x one shard's throughput)",
    )
    capacity.add_argument("--max-shards", type=int, default=1024,
                          help="largest shard count to consider")
    capacity.add_argument("--out", default=None,
                          help="write the capacity report JSON here")

    campaign = verbs.add_parser(
        "campaign", help="run declarative campaign DAGs from a JSON or "
        ".py graph spec",
    ).add_subparsers(dest="action", required=True)
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("spec", help="campaign graph spec (.json or .py)")
    runs = argparse.ArgumentParser(add_help=False, parents=[spec])
    runs.add_argument(
        "--workers", type=int, default=None,
        help="evaluate each layer over a process pool this wide "
        "(default: serial)",
    )
    runs.add_argument("--cache", default=None,
                      help="path for the content-addressed result cache")
    runs.add_argument(
        "--serve", action="store_true",
        help="route evaluations through a live EvaluationService "
        "(admission control, micro-batching, dedup)",
    )
    runs.add_argument("--batch-size", type=int, default=8,
                      help="--serve: micro-batch size")
    runs.add_argument(
        "--trace-dir", default=None,
        help="record the run under repro.obs and write traces, ledger "
        "and metrics here",
    )
    runs.add_argument("--out", default=None,
                      help="write the campaign run report JSON here")
    verb(
        campaign, "run", _campaign_run, "execute a campaign graph spec",
        parents=[runs],
    ).add_argument(
        "--checkpoint", default=None,
        help="JSON checkpoint store for node results (enables resume)",
    )
    verb(
        campaign, "resume", _campaign_run,
        "re-execute a spec against its checkpoint (completed nodes are "
        "restored, not re-run)",
        parents=[runs],
    ).add_argument("--checkpoint", required=True,
                   help="checkpoint store written by a previous run")
    verb(
        campaign, "status", _printed(_campaign_status),
        "show a spec's progress against a checkpoint", parents=[spec],
    ).add_argument("--checkpoint", required=True,
                   help="checkpoint store to inspect")
    verb(
        campaign, "example", _campaign_example,
        "print the composite example graph (DSE -> hetero -> Pareto) "
        "as a runnable JSON spec",
    ).add_argument("--out", default=None,
                   help="write the example spec here (default: stdout)")

    obs = verbs.add_parser(
        "obs", help="inspect what 'repro serve --trace-dir' recorded",
    ).add_subparsers(dest="action", required=True)
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument(
        "--trace-dir", default="obs",
        help="directory written by 'repro serve --trace-dir' "
        "(default: ./obs)",
    )
    verb(
        obs, "show", _printed(_obs_show),
        "render one trace's span tree and ledger events", parents=[trace],
    ).add_argument("trace_id", help="trace id (unique prefix accepted)")
    verb(
        obs, "summary", _printed(_obs_summary),
        "aggregate span durations across all traces", parents=[trace],
    )
    export = verb(
        obs, "export", _obs_export, "re-export the recording",
        parents=[trace],
    )
    export.add_argument(
        "--format", choices=("chrome", "jsonl", "prom"), default="chrome",
        help="chrome/jsonl re-export the spans; prom renders the "
        "exported metrics snapshot as Prometheus text exposition",
    )
    export.add_argument("--out", default=None,
                        help="output file (default: stdout)")
    verb(
        obs, "top", _printed(_obs_top),
        "slowest requests with their critical-path phase split",
        parents=[trace],
    ).add_argument("--top", type=int, default=10,
                   help="how many requests to list")
    verb(
        obs, "slo", _obs_slo,
        "evaluate SLO burn rates over the flight-recorder samples",
        parents=[trace],
    ).add_argument(
        "--spec", default=None,
        help="JSON file with a list of SLO spec objects (default: "
        "built-in latency/error/availability objectives)",
    )
    critical = verb(
        obs, "critical-path", _printed(_obs_critical_path),
        "aggregate critical-path phase report (optionally vs a baseline "
        "trace dir)",
        parents=[trace],
    )
    critical.add_argument("--top", type=int, default=10,
                          help="how many requests to list")
    critical.add_argument(
        "--baseline", default=None,
        help="another trace dir to attribute a regression against",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReproError as exc:
        print(f"{args.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
