"""Experiment CAMPAIGN: graph-runner overhead and wrapper identity.

The declarative campaign DAG (:mod:`repro.campaign`) re-expresses the
bespoke sweep/campaign loops as Eval/Reduce graphs executed by
:class:`~repro.campaign.GraphRunner`.  That refactor is only free if
(a) the graph machinery adds negligible overhead to a serial sweep and
(b) the thin wrappers stay byte-identical to the loops they replaced.
This bench measures both, plus the batching upside: independent eval
nodes in one layer dispatch as a single ``ParallelEvaluator`` batch.

Acceptance targets (asserted with ``--check``, reported always):

- **overhead**: a graph-backed serial ``crossbar_sweep`` stays within
  5% of the inline ``evaluate_crossbar_spec`` loop (median of per-pair
  time ratios over N warm pairs run in alternating order);
- **identity**: ``crossbar_sweep`` and ``run_campaign`` wrappers return
  exactly what inline reproductions of the legacy loops return, and a
  pooled graph run is byte-identical to the serial run;
- **composite**: the worked DSE -> hetero -> Pareto graph runs end to
  end and its Pareto reduction is non-empty.

The batching speedup is reported (serial vs pooled wall time) but not
gated: it depends on the runner's core count, which CI does not pin.

Run standalone to emit the JSON artifact CI uploads::

    PYTHONPATH=src python benchmarks/bench_campaign.py --quick --check \
        --out BENCH_campaign.json
"""

import argparse
import json
import os
import statistics
import sys
import time

from repro.campaign import GraphRunner, composite_campaign_graph
from repro.hetero.campaign import (
    CampaignCell,
    DEFAULT_DEVICES,
    DEFAULT_STORAGE,
    _campaign_cell_task,
    _scheduled_cells,
    run_campaign,
)
from repro.hetero.workload import SegmentationWorkload
from repro.imc.sweep import (
    CrossbarSweepSpec,
    crossbar_sweep,
    evaluate_crossbar_spec,
)

OVERHEAD_GATE_PCT = 5.0
FULL_SPECS, FULL_REPEATS = 16, 12
QUICK_SPECS, QUICK_REPEATS = 8, 10
#: Timed (inline, graph) pairs behind the overhead gate's median.
FULL_PAIRS, QUICK_PAIRS = 24, 20
POOL_WORKERS = 2


def _specs(count):
    return [
        CrossbarSweepSpec(rows=96, cols=96, num_inputs=8, seed=seed)
        for seed in range(count)
    ]


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_ratios(fn_a, fn_b, pairs):
    """Time *fn_a* and *fn_b* back to back *pairs* times, alternating
    which runs first; returns both time lists and the per-pair ratios
    ``b / a``.  Each ratio compares two runs from one load window, and
    alternating cancels any first-or-second position bias, so the
    median ratio is steady on a noisy shared runner where the ratio of
    two independent minimums is not."""
    times_a, times_b = [], []
    for index in range(pairs):
        order = [(fn_a, times_a), (fn_b, times_b)]
        for fn, sink in order[::-1] if index % 2 else order:
            start = time.perf_counter()
            fn()
            sink.append(time.perf_counter() - start)
    ratios = [b / a for a, b in zip(times_a, times_b)]
    return times_a, times_b, ratios


def overhead_study(num_specs, pairs):
    """Serial graph-backed sweep vs the inline legacy loop."""
    specs = _specs(num_specs)
    crossbar_sweep(specs[:1])  # warm imports and caches out of the timing
    bespoke, graph, ratios = _paired_ratios(
        lambda: [evaluate_crossbar_spec(spec) for spec in specs],
        lambda: crossbar_sweep(specs),
        pairs,
    )
    return {
        "num_specs": num_specs,
        "pairs": pairs,
        "bespoke_s": statistics.median(bespoke),
        "graph_s": statistics.median(graph),
        "overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
        "identical": crossbar_sweep(specs)
        == [evaluate_crossbar_spec(spec) for spec in specs],
    }


def batching_study(num_specs, repeats):
    """One layer of independent eval nodes: serial vs one pooled batch."""
    specs = _specs(num_specs)
    serial_rows = crossbar_sweep(specs)
    pooled_rows = crossbar_sweep(specs, parallel=POOL_WORKERS)
    timing_repeats = max(3, repeats // 2)
    serial_s = _best_of(lambda: crossbar_sweep(specs), timing_repeats)
    pooled_s = _best_of(
        lambda: crossbar_sweep(specs, parallel=POOL_WORKERS),
        timing_repeats,
    )
    return {
        "num_specs": num_specs,
        "workers": POOL_WORKERS,
        "cpu_count": os.cpu_count(),
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "speedup": serial_s / pooled_s,
        "identical": pooled_rows == serial_rows,
    }


def wrapper_identity_study():
    """The thin wrappers vs inline reproductions of the legacy loops."""
    workload = SegmentationWorkload(num_volumes=8, epochs=1)
    legacy_cells = [
        CampaignCell.from_record(
            _campaign_cell_task((workload, device, storage, phase))
        )
        for device, storage, phase in _scheduled_cells(
            DEFAULT_DEVICES, DEFAULT_STORAGE
        )
    ]
    campaign_identical = run_campaign(workload) == legacy_cells

    report = GraphRunner().run(composite_campaign_graph(dse_budget=8))
    front = report.value("pareto") if report.ok else []
    return {
        "run_campaign_identical": campaign_identical,
        "campaign_cells": len(legacy_cells),
        "composite_ok": report.ok,
        "composite_nodes": len(report.results),
        "composite_front_size": len(front),
    }


def run_campaign_study(quick=False):
    num_specs = QUICK_SPECS if quick else FULL_SPECS
    repeats = QUICK_REPEATS if quick else FULL_REPEATS
    return {
        "overhead": overhead_study(
            num_specs, QUICK_PAIRS if quick else FULL_PAIRS
        ),
        "batching": batching_study(num_specs, repeats),
        "wrappers": wrapper_identity_study(),
    }


def check(report):
    """Gate the acceptance targets; returns (ok, messages)."""
    messages = []
    ok = True

    overhead = report["overhead"]
    if overhead["overhead_pct"] <= OVERHEAD_GATE_PCT:
        messages.append(
            f"ok: graph overhead {overhead['overhead_pct']:+.2f}% within "
            f"{OVERHEAD_GATE_PCT:g}% of the inline loop"
        )
    else:
        ok = False
        messages.append(
            f"FAIL: graph overhead {overhead['overhead_pct']:+.2f}% "
            f"exceeds {OVERHEAD_GATE_PCT:g}%"
        )
    if overhead["identical"]:
        messages.append("ok: crossbar_sweep byte-identical to inline loop")
    else:
        ok = False
        messages.append("FAIL: crossbar_sweep diverged from inline loop")

    batching = report["batching"]
    if batching["identical"]:
        messages.append("ok: pooled graph run byte-identical to serial")
    else:
        ok = False
        messages.append("FAIL: pooled graph run diverged from serial")
    messages.append(
        f"ok: batching speedup {batching['speedup']:.2f}x at "
        f"{batching['workers']} workers on {batching['cpu_count']} cores "
        "(report-only)"
    )

    wrappers = report["wrappers"]
    if wrappers["run_campaign_identical"]:
        messages.append(
            f"ok: run_campaign identical to legacy loop "
            f"({wrappers['campaign_cells']} cells)"
        )
    else:
        ok = False
        messages.append("FAIL: run_campaign diverged from legacy loop")
    if wrappers["composite_ok"] and wrappers["composite_front_size"] >= 1:
        messages.append(
            f"ok: composite DSE->hetero->Pareto graph ran "
            f"({wrappers['composite_nodes']} nodes, front size "
            f"{wrappers['composite_front_size']})"
        )
    else:
        ok = False
        messages.append(
            f"FAIL: composite graph ok={wrappers['composite_ok']} "
            f"front={wrappers['composite_front_size']}"
        )
    return ok, messages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if acceptance targets fail")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    report = run_campaign_study(quick=args.quick)
    ok, messages = check(report)
    report["check"] = {"passed": ok, "messages": messages}

    overhead, batching = report["overhead"], report["batching"]
    print(
        f"overhead: bespoke {overhead['bespoke_s'] * 1000:.1f} ms, "
        f"graph {overhead['graph_s'] * 1000:.1f} ms "
        f"({overhead['overhead_pct']:+.2f}% over {overhead['num_specs']} "
        f"specs, median of {overhead['pairs']} alternating pairs)"
    )
    print(
        f"batching: serial {batching['serial_s'] * 1000:.1f} ms, "
        f"pooled {batching['pooled_s'] * 1000:.1f} ms "
        f"({batching['speedup']:.2f}x at {batching['workers']} workers)"
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


def test_campaign_overhead(benchmark):
    study = benchmark(lambda: run_campaign_study(quick=True))
    ok, messages = check(study)
    for message in messages:
        print(message)
    assert ok, "campaign acceptance targets failed"


if __name__ == "__main__":
    sys.exit(main())
