"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-mixed-open --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of one untraced pass; ``--trace 1`` runs an untraced, a
benchmark-traced and an ``repro.obs``-armed pass and prints the
per-layer metrics.  The last line of standard output is the result
object; a full report (host fingerprint, traffic census, sample counts,
generator lateness) is printed before it and written, with the spans of
a traced pass, under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mixed-open", "cluster-warm-closed", "campaign-cold")


def _setup_path() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program sources at {src}; run from a full "
            "checkout of the repository"
        )
    if src not in sys.path:
        sys.path.insert(0, src)


def _pass(workload: str, seed: int, seconds: float, mode: str,
          scale: float) -> dict:
    import scenarios

    if workload == "serve-mixed-open":
        return scenarios.serve_mixed_open(seed, seconds, mode, scale)
    if workload == "campaign-cold":
        return scenarios.campaign_cold(seed, seconds, mode, scale)
    workdir = scenarios.make_workdir(ROOT)
    try:
        return scenarios.cluster_warm_closed(seed, seconds, mode, workdir,
                                             scale)
    finally:
        scenarios.remove_workdir(workdir)


def _pass_ok(result: dict) -> bool:
    counts = result["counts"]
    return (
        counts["checked"] > 0
        and result["failed"] == 0
        and not result["invalid"]
    )


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    """One benchmark invocation; returns ``{"result", "report"}``."""
    from analysis import layer_metrics
    from measure import host_fingerprint

    modes = ("plain", "traced", "armed") if trace else ("plain",)
    passes = {m: _pass(workload, seed, seconds, m, scale) for m in modes}
    units = _units()
    if trace:
        values = layer_metrics(workload, passes["plain"], passes["traced"],
                               passes["armed"])
        unit_of = units["per_layer"]
    else:
        values = dict(passes["plain"]["e2e"])
        unit_of = units["end_to_end"]
    metrics = {
        name: {"value": float(value), "unit": unit_of.get(name, "?")}
        for name, value in sorted(values.items())
    }
    result = {
        "correct": all(_pass_ok(p) for p in passes.values())
        and all(math.isfinite(m["value"]) for m in metrics.values()),
        "attempted": sum(p["attempted"] for p in passes.values()),
        "failed": sum(p["failed"] for p in passes.values()),
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_fingerprint(),
        "passes": {
            mode: {
                key: value for key, value in p.items()
                if key not in ("spans", "requests")
            }
            for mode, p in passes.items()
        },
    }
    for mode, p in passes.items():
        p_report = report["passes"][mode]
        p_report["error_rate"] = p["failed"] / p["attempted"]
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(out_dir, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "report": report}, fh, indent=1,
                  sort_keys=True, default=str)
    if trace:
        passes["traced"]["spans"].write(
            os.path.join(out_dir, stem + ".spans.jsonl"))
    return {"result": result, "report": report}


def self_test() -> int:
    """Reduced-size run of every workload in both modes: the printed
    metric names must match BENCHMARK.json and every correctness check
    must have run and passed."""
    units = _units()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            outcome = run(workload, 0, 1.0, trace, scale=0.25)
            result = outcome["result"]
            expected = set(units["per_layer" if trace else "end_to_end"])
            names = set(result["metrics"])
            label = f"{workload} trace={int(trace)}"
            if names != expected:
                problems.append(
                    f"{label}: missing {sorted(expected - names)}, "
                    f"unexpected {sorted(names - expected)}")
            checked = sum(p["counts"]["checked"] for p in
                          outcome["report"]["passes"].values())
            if checked == 0:
                problems.append(f"{label}: correctness check did not run")
            if not result["correct"]:
                problems.append(f"{label}: result not correct")
            print(f"self-test {label}: {len(names)} metrics, "
                  f"{checked} results checked, correct={result['correct']}",
                  flush=True)
    for problem in problems:
        print(f"self-test FAILED: {problem}", flush=True)
    return 1 if problems else 0


def _reap_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    The cluster's spawn-context queues start that helper process.  Left
    alone it ends only after this process has exited, as an orphan.  By
    now every shard is joined and every queue dropped: collect them, run
    their semaphore finalizers (which unregister with the tracker), then
    close the tracker's pipe and reap it.  Nothing registers afterwards,
    so it is not started again at exit.
    """
    import gc
    from multiprocessing import resource_tracker, util

    gc.collect()
    util._run_finalizers(0)
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _reap_resource_tracker()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    _setup_path()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("report: " + json.dumps(outcome["report"], sort_keys=True,
                                  default=str))
    print(json.dumps(outcome["result"], sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
