"""Asynchronous micro-batched evaluation serving.

The front door that turns the suite's simulators into a servable
system (ROADMAP north-star: "serves heavy traffic ... sharding,
batching, async, caching"):

- :class:`EvaluationService` -- bounded priority queue, micro-batch
  coalescing, dispatch onto :class:`~repro.exec.ParallelEvaluator`
  with content-addressed caching, in-batch dedup,
  :mod:`repro.resilience` retry/deadline handling, admission control
  and graceful drain/shutdown;
- :class:`EvalRequest` / :class:`AdmissionRejected` -- the request
  vocabulary;
- :class:`ServiceMetrics` -- queue depth, batch occupancy, latency
  percentiles, throughput and cache-hit accounting as JSON snapshots;
- :func:`serve_requests` -- one-shot request-list serving;
- :class:`ShardCluster` / :class:`ShardRouter` / :class:`Supervisor`
  -- fault-tolerant sharding: consistent-hash routing on request
  digests, heartbeat/deadline failure detection, shard restart with
  replay of the lost requests, per-workload circuit breakers;
- :class:`ProcessShard` -- a shard hosted in its own worker process
  (``backend="process"``): true multi-core scaling with the same
  exactly-once and replay guarantees, metrics/ledger collected across
  the process boundary;
- :class:`CapacityModel` / :class:`ShardCostModel` -- the capacity/TCO
  model: shards needed and cost per million requests at a target p99,
  from measured throughput, latency and scaling efficiency;
- :func:`run_chaos_campaign` -- deterministic chaos-schedule driver
  asserting exactly-once completion under shard kills;
- :mod:`repro.serve.loadgen` -- deterministic synthetic traffic for
  benches and the ``repro serve`` CLI.

Each name is imported from its module on first use
(:func:`repro._lazy.lazy_exports`), so a process shard, which imports
only the service and its worker loop, never loads the cluster,
capacity or load-generator modules (nor numpy).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.serve.capacity": (
        "CapacityModel",
        "CapacityPlan",
        "ShardCostModel",
        "capacity_report",
    ),
    "repro.serve.cluster": (
        "ShardCluster",
        "ShardRouter",
        "Supervisor",
        "incomplete_from_ledger",
        "run_chaos_campaign",
    ),
    "repro.serve.procshard": ("ProcessShard",),
    "repro.serve.loadgen": (
        "config_pool",
        "generate_requests",
        "run_load",
        "zipf_weights",
    ),
    "repro.serve.metrics": ("ServiceMetrics",),
    "repro.serve.request": (
        "AdmissionRejected",
        "EvalRequest",
        "PRIORITY_LANES",
        "load_requests",
    ),
    "repro.serve.service": ("EvaluationService", "serve_requests"),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
