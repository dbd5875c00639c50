"""Synthetic load generation for the evaluation service.

Serving traffic is never uniform: a few popular configurations dominate
(the head), with a long tail of rare ones.  :func:`generate_requests`
reproduces that shape deterministically -- a seeded config pool drawn
from the workload's declared :meth:`~repro.core.api.Workload.space`
plus a Zipf-like rank distribution over it -- so benches measure the
dedup/cache behaviour real traffic exercises, repeatably.

:func:`run_load` replays a request list against a service either as a
**burst** (all at once: the saturation point) or **paced** at an
offered rate in requests/second (open-loop arrivals), returning the
achieved throughput and per-request latency summary for one point of a
latency/throughput curve.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.api import Workload, example_config
from repro.core.errors import ValidationError
from repro.obs.stats import summary as _summary
from repro.serve.request import AdmissionRejected, EvalRequest
from repro.serve.service import EvaluationService


def config_pool(
    workload: Workload, size: int, *, seed: int = 0
) -> List[Dict[str, Any]]:
    """*size* distinct valid configurations of *workload*.

    Starts from the cheap :func:`~repro.core.api.example_config` and
    cycles the first parameter's declared choices (then a second, when
    the pool outgrows them), so every pool member stays valid while the
    pool is genuinely heterogeneous.  Deterministic in *seed* (the seed
    offsets the cycling phase).
    """
    if size < 1:
        raise ValidationError("pool size must be >= 1")
    space = workload.space()
    base = example_config(workload)
    names = [n for n, choices in space.items() if len(choices) > 1]
    if not names:
        return [dict(base) for _ in range(size)]
    primary = names[0]
    secondary = names[1] if len(names) > 1 else None
    pool = []
    for i in range(size):
        cfg = dict(base)
        offset = i + seed
        choices = space[primary]
        cfg[primary] = choices[offset % len(choices)]
        if secondary is not None:
            choices2 = space[secondary]
            cfg[secondary] = choices2[(offset // len(choices)) % len(choices2)]
        pool.append(cfg)
    return pool


def zipf_weights(size: int, skew: float = 1.5) -> np.ndarray:
    """Normalized Zipf rank weights ``1/rank**skew`` over *size* ranks."""
    if size < 1:
        raise ValidationError("size must be >= 1")
    if skew < 0:
        raise ValidationError("skew must be >= 0")
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks**-skew
    return weights / weights.sum()


def generate_requests(
    workload: Workload,
    num_requests: int,
    *,
    pool_size: int = 6,
    skew: float = 1.5,
    seed: int = 0,
    priority_mix: Optional[Dict[str, float]] = None,
) -> List[EvalRequest]:
    """A deterministic, duplicate-heavy request stream.

    Requests draw configurations from a ``pool_size`` pool with
    Zipf(*skew*) popularity; a duplicate draw is a *true* duplicate
    (same config, same seed -> same digest), which is what gives the
    service's dedup and cache something real to do.  *priority_mix*
    maps lane names to probabilities (default: all ``"normal"``).
    """
    if num_requests < 1:
        raise ValidationError("num_requests must be >= 1")
    pool = config_pool(workload, pool_size, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, num_requests]))
    picks = rng.choice(len(pool), size=num_requests, p=zipf_weights(
        len(pool), skew))
    lanes: Sequence[str] = ["normal"] * num_requests
    if priority_mix:
        names = sorted(priority_mix)
        probs = np.array([priority_mix[n] for n in names], dtype=np.float64)
        probs = probs / probs.sum()
        lanes = [
            names[i] for i in rng.choice(len(names), size=num_requests,
                                         p=probs)
        ]
    return [
        EvalRequest(
            workload=workload.name,
            config=pool[int(pick)],
            # One seed per pool entry, so repeats of a config dedup.
            seed=seed + int(pick),
            priority=lane,
        )
        for pick, lane in zip(picks, lanes)
    ]


def run_load(
    service: EvaluationService,
    requests: Sequence[EvalRequest],
    *,
    rate_rps: Optional[float] = None,
    block: bool = True,
) -> Dict[str, Any]:
    """Replay *requests* against *service* and measure one load point.

    ``rate_rps=None`` submits the whole list at once (burst /
    saturation); otherwise arrivals are paced open-loop at the offered
    rate.  Returns offered/achieved throughput, a latency summary over
    the completed requests, and error/rejection counts.

    A request's latency runs from the moment it was due (paced) or
    submitted (burst) to the moment its future resolved, stamped by a
    done callback -- so a fast request is never charged the wait of a
    slow one submitted before it, and a generator that falls behind
    its schedule shows up as latency.
    """
    if rate_rps is not None and rate_rps <= 0:
        raise ValidationError("rate_rps must be positive")
    futures = []
    rejected = 0
    start = time.perf_counter()
    for index, request in enumerate(requests):
        due = None
        if rate_rps is not None:
            due = start + index / rate_rps
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        t0 = time.perf_counter() if due is None else due
        try:
            future = service.submit_request(request, block=block)
        except AdmissionRejected:
            rejected += 1
            continue
        done_at: List[float] = []
        future.add_done_callback(
            lambda _f, done_at=done_at: done_at.append(time.perf_counter())
        )
        futures.append((t0, future, done_at))
    results = []
    latencies = []
    errors = 0
    for t0, future, done_at in futures:
        result = future.result()
        results.append(result)
        # A waiter can wake before the done callbacks have run.
        stamp = done_at[0] if done_at else time.perf_counter()
        latencies.append(stamp - t0)
        if not result.ok:
            errors += 1
    elapsed = time.perf_counter() - start
    completed = len(results)
    return {
        "offered_rps": rate_rps,
        "num_requests": len(requests),
        "completed": completed,
        "rejected": rejected,
        "errors": errors,
        "elapsed_s": elapsed,
        "achieved_rps": completed / elapsed if elapsed > 0 else 0.0,
        "latency_s": _summary(latencies),
        "results": results,
    }
