"""Seeded inputs of the three benchmark workloads.

Everything here is a pure function of the benchmark seed: the program
under test receives only the generated requests and graphs.  The seed
picks the per-request evaluation seeds (so every seed brings new cache
keys and new results), the popularity ranks and the arrival order; the
configurations themselves are a fixed draw, so two seeds give traffic
of the same cost profile and the run-to-run spread measures the
system, not the draw.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.campaign import CampaignGraph
from repro.serve import EvalRequest

#: Registry workloads on the serving paths, each restricted to a
#: sub-space whose cells all succeed and cost a few ms on one core, in
#: a narrow range, so which configurations miss the cache under a given
#: seed barely changes the kernel load.  ``imc-crossbar`` drops ``t_seconds < 1`` (the drift
#: model rejects it) and ``dna-pipeline`` (hundreds of ms per cell)
#: stays on the campaign path only.
SERVE_SPACES: Dict[str, Dict[str, Sequence[Any]]] = {
    "hls": {
        "kernel": ("gemm", "dot", "fir8", "gather"),
        "size": (64, 128),
        "unroll": (1, 2, 4),
        "pipeline": (True, False),
        "array_partition": (1, 2),
        "mul_units": (1, 2),
        "add_units": (1, 2),
    },
    "imc-crossbar": {
        "rows": (32,),
        "cols": (32,),
        "device": ("rram", "pcm"),
        "wire_resistance_ohm": (0.5, 1.0, 2.0),
        "use_program_verify": (True, False),
        "num_inputs": (4, 8),
        "t_seconds": (1.0, 10.0),
    },
    "sparta": {
        "num_nodes": (48,),
        "avg_degree": (6.0,),
        "num_lanes": (2, 4),
        "contexts_per_lane": (2, 4),
        "num_channels": (2, 4),
        "memory_latency": (50, 100),
        "enable_cache": (True, False),
    },
    "axc-htconv": {
        "channels": (4, 8),
        "height": (16, 24),
        "width": (16, 24),
        "kernel": (3, 5),
        "coverage": (0.0, 0.25, 0.5, 1.0),
    },
    "dse": {
        "explorer": ("random",),
        "budget": (8,),
        "kernel": ("dot", "fir8"),
        "size": (32,),
        "max_unroll": (4,),
        "max_units": (4,),
    },
}

#: Share of each registry workload in the serve-mixed-open traffic;
#: cheap workloads are requested more often.
SERVE_MIX = {
    "hls": 0.28, "axc-htconv": 0.25, "imc-crossbar": 0.19,
    "dse": 0.14, "sparta": 0.14,
}

#: serve-mixed-open: requests per burst (under the service's batch size
#: of 8, so every burst waits out the batch window), how often a burst
#: carries never-seen requests and how many, the popular set warmed
#: before the window, and its Zipf skew.
SERVE_BURST = 6
SERVE_FRESH_EVERY = 5
SERVE_FRESH_PER_BURST = 2
SERVE_HOT = 120
SERVE_SKEW = 0.9

#: Distinct requests in the cluster-warm-closed pool (all warmed, so
#: their cost only matters before the timed window).
CLUSTER_POOL = {
    "hls": 24, "axc-htconv": 20, "imc-crossbar": 12, "dse": 8, "sparta": 8,
}


def _draw_configs(
    space: Dict[str, Sequence[Any]], count: int, rng: random.Random
) -> List[Dict[str, Any]]:
    """*count* configurations from *space*, distinct while the space
    allows (a smaller space repeats configs, which the per-request
    evaluation seed then makes distinct requests)."""
    names = list(space)
    product = list(itertools.product(*(space[n] for n in names)))
    rng.shuffle(product)
    picks = [product[i % len(product)] for i in range(count)]
    return [dict(zip(names, values)) for values in picks]


def request_pool(
    sizes: Dict[str, int], seed: int, salt: int
) -> List[EvalRequest]:
    """Distinct requests: per workload, a fixed draw of configurations
    (so every seed's pool costs the same to compute) with per-request
    evaluation seeds derived from (*seed*, *salt*, index)."""
    rng = random.Random(f"pool|{salt}")
    pool: List[EvalRequest] = []
    for name in sorted(sizes):
        for index, config in enumerate(
            _draw_configs(SERVE_SPACES[name], sizes[name], rng)
        ):
            pool.append(
                EvalRequest(
                    workload=name,
                    config=config,
                    seed=seed * 100_003 + salt * 1_009 + index,
                )
            )
    return pool


def zipf_stream(
    pool: Sequence[EvalRequest], length: int, skew: float, seed: int,
    salt: str,
) -> List[EvalRequest]:
    """*length* draws from *pool*: the registry workload by its share of
    the pool (a fixed mix, so the seed cannot shift traffic towards a
    costly workload), then the request with Zipf(*skew*) popularity over
    a seeded rank order within that workload (rank 1 = most popular)."""
    rng = random.Random(f"zipf|{seed}|{salt}")
    groups: Dict[str, List[EvalRequest]] = {}
    for request in pool:
        groups.setdefault(request.workload, []).append(request)
    names = sorted(groups)
    weights = {}
    for name in names:
        rng.shuffle(groups[name])
        weights[name] = [1.0 / (rank ** skew)
                         for rank in range(1, len(groups[name]) + 1)]
    picks = rng.choices(names, weights=[len(groups[n]) for n in names],
                        k=length)
    return [rng.choices(groups[n], weights=weights[n])[0] for n in picks]


def _sizes(total: int) -> Dict[str, int]:
    """*total* pool entries split by :data:`SERVE_MIX` (at least one
    per workload)."""
    return {name: max(1, round(total * share))
            for name, share in SERVE_MIX.items()}


def serve_traffic(seed: int, bursts: int
                  ) -> Tuple[List[EvalRequest], List[EvalRequest]]:
    """serve-mixed-open inputs: ``(hot, stream)``.

    *hot* is the popular set the cache is warmed with before the
    window.  *stream* is ``bursts`` bursts of :data:`SERVE_BURST`
    requests, Zipf draws from the hot set (cache hits); every
    :data:`SERVE_FRESH_EVERY`-th burst has :data:`SERVE_FRESH_PER_BURST`
    of them replaced, at seeded positions, by never-seen requests: cache
    misses that reach the kernels through a process pool, at a steady
    rate for the whole window.
    """
    fresh_bursts = len(range(0, bursts, SERVE_FRESH_EVERY))
    hot = request_pool(_sizes(SERVE_HOT), seed, 1)
    fresh = request_pool(_sizes(fresh_bursts * SERVE_FRESH_PER_BURST),
                         seed, 3)
    rng = random.Random(f"serve|{seed}")
    rng.shuffle(fresh)
    repeats = zipf_stream(hot, bursts * SERVE_BURST, SERVE_SKEW, seed,
                          "serve")
    stream: List[EvalRequest] = []
    for index in range(bursts):
        slots = (
            set(rng.sample(range(SERVE_BURST), SERVE_FRESH_PER_BURST))
            if index % SERVE_FRESH_EVERY == 0 else set()
        )
        for slot in range(SERVE_BURST):
            stream.append(fresh.pop() if slot in slots and fresh
                          else repeats.pop())
    return hot, stream


def cluster_pool(seed: int) -> List[EvalRequest]:
    return request_pool(CLUSTER_POOL, seed, 2)


def cluster_streams(
    pool: Sequence[EvalRequest], seed: int, clients: int, length: int
) -> List[List[EvalRequest]]:
    """One duplicate-heavy replay stream per closed-loop client."""
    return [
        zipf_stream(pool, length, 1.0, seed, f"client{c}")
        for c in range(clients)
    ]


#: The campaign's fixed sweep axes; the seed varies the evaluation
#: seeds (payloads, graphs, device noise), not the amount of work.
_CAMPAIGN_HLS = [
    {"kernel": k, "size": s, "unroll": u, "pipeline": True,
     "array_partition": 2, "mul_units": 2, "add_units": 2}
    for k in ("gemm", "dot", "fir8", "gather")
    for s in (64, 128)
    for u in (1, 2, 4)
]
_CAMPAIGN_DSE = [
    {"explorer": e, "budget": 8, "kernel": k, "size": 32,
     "max_unroll": 4, "max_units": 4}
    for e in ("random", "annealing")
    for k in ("dot", "fir8", "gather", "gemm")
]
_CAMPAIGN_IMC = [
    {"rows": r, "cols": r, "device": d, "wire_resistance_ohm": 1.0,
     "use_program_verify": pv, "num_inputs": 8, "t_seconds": 1.0}
    for r in (32, 48, 64)
    for d in ("rram", "pcm")
    for pv in (True, False)
]
_CAMPAIGN_SPARTA = [
    {"num_nodes": 48, "avg_degree": 8.0, "num_lanes": lanes,
     "contexts_per_lane": ctx, "num_channels": 4, "memory_latency": 100,
     "enable_cache": True}
    for lanes in (1, 2, 4, 8)
    for ctx in (1, 4)
]
#: The campaign set-up's first warm request: one mid-cost cell, which a
#: one-task map evaluates in the coordinator.
CAMPAIGN_WARM_SPARTA = _CAMPAIGN_SPARTA[2]
#: Four DNA cells of a few hundred ms each, not two of ~0.5 s: with two
#: big cells each pool worker gets one and the run takes as long as the
#: slower core needs for its cell; smaller cells let the per-task
#: scheduling hand more work to whichever core is faster at the time.
_CAMPAIGN_DNA = [
    {"payload_bytes": 32, "rs_n": 63, "rs_k": 47, "mean_coverage": 4.0,
     "substitution_rate": sub, "indel_rate": indel}
    for sub in (0.01, 0.003)
    for indel in (0.005, 0.001)
]
_CAMPAIGN_AXC = [
    {"channels": 4, "height": h, "width": h, "kernel": 3, "coverage": c}
    for h in (16, 24)
    for c in (0.25, 0.5)
]

#: Sweeps whose cost depends on the evaluation seed (the DNA channel
#: draw sets the decode work, SPARTA's random graph the BFS region,
#: DSE's explorer the number of syntheses) keep fixed seeds, so the
#: campaign does the same amount of work under every benchmark seed.
_FIXED_SEED_SWEEPS = ("dna-pipeline", "sparta", "dse")

#: Reductions over each sweep: (node, op, params, workload group).
_CAMPAIGN_REDUCES: Tuple[Tuple[str, str, Dict[str, Any], str], ...] = (
    ("hls.pareto", "pareto", {"metrics": ["latency_s", "area_score"]},
     "hls"),
    ("hls.fastest", "argmin", {"metric": "latency_s"}, "hls"),
    ("dse.best", "argmin", {"metric": "best_latency_s"}, "dse"),
    ("imc.best", "argmin", {"metric": "rms_error"}, "imc-crossbar"),
    ("sparta.mean_cycles", "mean", {"metric": "cycles"}, "sparta"),
    ("dna.mean_coverage", "collect", {}, "dna-pipeline"),
    ("axc.pareto", "pareto", {"metrics": ["mse", "macs"]}, "axc-htconv"),
)


def campaign_graph(seed: int) -> CampaignGraph:
    """All-distinct eval nodes over the FIG6 DNA pipeline, SPARTA, an
    IMC crossbar sweep, HLS/DSE cells and AxC cells, then one layer of
    pareto/argmin/mean reductions over each sweep."""
    graph = CampaignGraph(name=f"perfbench-campaign-{seed}")
    groups: Dict[str, List[str]] = {}
    sweeps = (
        ("dna-pipeline", _CAMPAIGN_DNA),
        ("sparta", _CAMPAIGN_SPARTA),
        ("imc-crossbar", _CAMPAIGN_IMC),
        ("dse", _CAMPAIGN_DSE),
        ("hls", _CAMPAIGN_HLS),
        ("axc-htconv", _CAMPAIGN_AXC),
    )
    for workload, configs in sweeps:
        for index, config in enumerate(configs):
            name = f"{workload}.{index}"
            graph.evaluate(
                name, workload, config=dict(config),
                seed=(index if workload in _FIXED_SEED_SWEEPS
                      else seed * 7_919 + index),
            )
            groups.setdefault(workload, []).append(name)
    for name, op, params, group in _CAMPAIGN_REDUCES:
        graph.reduce(name, op=op, params=params, deps=tuple(groups[group]))
    return graph
