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
"""

from repro.serve.capacity import (
    CapacityModel,
    CapacityPlan,
    ShardCostModel,
    capacity_report,
)
from repro.serve.cluster import (
    ShardCluster,
    ShardRouter,
    Supervisor,
    incomplete_from_ledger,
    run_chaos_campaign,
)
from repro.serve.procshard import ProcessShard
from repro.serve.loadgen import (
    config_pool,
    generate_requests,
    run_load,
    zipf_weights,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import (
    AdmissionRejected,
    EvalRequest,
    PRIORITY_LANES,
    load_requests,
)
from repro.serve.service import EvaluationService, serve_requests

__all__ = [
    "AdmissionRejected",
    "CapacityModel",
    "CapacityPlan",
    "EvalRequest",
    "EvaluationService",
    "PRIORITY_LANES",
    "ProcessShard",
    "ServiceMetrics",
    "ShardCluster",
    "ShardCostModel",
    "ShardRouter",
    "Supervisor",
    "capacity_report",
    "config_pool",
    "generate_requests",
    "incomplete_from_ledger",
    "load_requests",
    "run_chaos_campaign",
    "run_load",
    "serve_requests",
    "zipf_weights",
]
