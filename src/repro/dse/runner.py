"""Exploration orchestration and explorer comparison.

:class:`DSERunner` wires a kernel, a design space and an explorer, runs
the exploration and extracts the Pareto front; ``compare`` scores several
explorers at equal budget by the 2-D hypervolume of their fronts against
a shared reference -- the standard way to compare front-approximation
quality (larger is better).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.errors import ValidationError
from repro.core.pareto import hypervolume_2d, pareto_indices
from repro.core.rng import SeedLike
from repro.dse.objectives import DesignPoint, HLSEvaluator
from repro.dse.space import DesignSpace, hls_directive_space
from repro.exec import make_evaluator
from repro.exec.parallel import CacheLike, EvaluatorLike
from repro.hls.estimation import ResourceLibrary
from repro.hls.kernels import LoopNest


@dataclass
class ExplorationResult:
    """Outcome of one exploration run.

    *summary* is set on results rebuilt from the interchange form
    (:meth:`from_run_result`): the point lists are gone, but the scored
    metrics round-trip byte-identically through :meth:`to_run_result`.
    """

    explorer_name: str
    evaluated: List[DesignPoint]
    front: List[DesignPoint]
    unique_evaluations: int
    summary: Optional[Dict[str, float]] = None

    def hypervolume(self, reference: Sequence[float]) -> float:
        objs = np.array([p.objectives for p in self.front])
        return hypervolume_2d(objs, reference)

    @property
    def best_latency(self) -> DesignPoint:
        return min(self.front, key=lambda p: p.latency_s)

    @property
    def best_area(self) -> DesignPoint:
        return min(self.front, key=lambda p: p.area)

    def to_run_result(
        self,
        *,
        workload: str = "dse",
        config=None,
        seed=None,
        impl=None,
        wall_time_s: float = 0.0,
        reference: Sequence[float] = (1.0, 1e6),
    ):
        """This exploration outcome in the unified
        :class:`~repro.core.api.RunResult` shape, scored against a fixed
        hypervolume *reference* so results are comparable across runs."""
        from repro.core.api import build_run_result

        if self.summary is not None:
            metrics = dict(self.summary)
        else:
            metrics = {
                "explorer": self.explorer_name,
                "hypervolume": self.hypervolume(reference),
                "front_size": len(self.front),
                "evaluations": len(self.evaluated),
                "unique_evaluations": self.unique_evaluations,
                "best_latency_s": self.best_latency.latency_s,
                "best_area": self.best_area.area,
            }
        return build_run_result(
            workload, metrics, config=config, seed=seed, impl=impl,
            wall_time_s=wall_time_s,
        )

    @classmethod
    def from_run_result(cls, result) -> "ExplorationResult":
        """Inverse of :meth:`to_run_result` for the scored summary: the
        design-point lists do not ride through the interchange shape,
        so the rebuilt result carries them empty and keeps the metrics
        in :attr:`summary`."""
        metrics = dict(result.metrics)
        return cls(
            explorer_name=str(metrics.get("explorer", result.workload)),
            evaluated=[],
            front=[],
            unique_evaluations=int(metrics.get("unique_evaluations", 0)),
            summary=metrics,
        )


class DSERunner:
    """Run explorations of one kernel's directive space."""

    def __init__(
        self,
        nest: LoopNest,
        space: Optional[DesignSpace] = None,
        library: Optional[ResourceLibrary] = None,
    ) -> None:
        self.nest = nest
        self.space = space or hls_directive_space()
        self.library = library or ResourceLibrary()

    def run(
        self,
        explorer,
        budget: int,
        seed: SeedLike = 0,
        parallel: EvaluatorLike = None,
        cache: CacheLike = None,
    ) -> ExplorationResult:
        """One exploration with a fresh evaluator (fair caching).

        *parallel* fans the explorer's objective evaluations out over a
        :class:`~repro.exec.ParallelEvaluator` (worker count, ``True``
        for CPU count, or a ready-made engine); *cache* memoizes
        synthesis results across runs through a content-addressed
        :class:`~repro.exec.ResultCache` (instance or path).  Synthesis
        is a pure function of the configuration and explorer RNG
        streams never depend on execution order, so serial and parallel
        runs produce bit-identical results at a fixed seed.

        A thin wrapper: the exploration is a single-node
        :func:`repro.campaign.dse_run_graph` executed by
        :class:`~repro.campaign.GraphRunner`, so it composes into
        larger campaign graphs unchanged.
        """
        from repro.campaign import GraphRunner, dse_run_graph

        graph = dse_run_graph(self, explorer, budget, seed, parallel, cache)
        runner = GraphRunner(observe=False)
        return runner.run(graph).value("explore")

    def _explore(
        self,
        explorer,
        budget: int,
        seed: SeedLike,
        parallel: EvaluatorLike,
        cache: CacheLike,
    ) -> ExplorationResult:
        """The exploration body :meth:`run`'s graph node executes."""
        from repro.obs.ledger import get_ledger

        ledger = get_ledger()
        ledger.event(
            "run.started", kind="dse",
            explorer=explorer.name, budget=budget,
        )
        executor = make_evaluator(parallel, cache)
        evaluator = HLSEvaluator(
            self.nest, self.space, self.library, executor=executor
        )
        try:
            points = explorer.explore(evaluator, budget, seed=seed)
        finally:
            if executor is not None and executor is not parallel:
                executor.close()
        objs = np.array([p.objectives for p in points])
        front = [points[i] for i in pareto_indices(objs)]
        # Deduplicate identical configurations on the front.
        unique = {}
        for p in front:
            unique[self.space.key(p.config)] = p
        front = sorted(unique.values(), key=lambda p: p.latency_s)
        ledger.event(
            "run.finished", kind="dse",
            explorer=explorer.name,
            evaluations=len(points), front_size=len(front),
        )
        return ExplorationResult(
            explorer_name=explorer.name,
            evaluated=points,
            front=front,
            unique_evaluations=evaluator.unique_evaluations,
        )

    def compare(
        self,
        explorers: Sequence,
        budget: int,
        seed: SeedLike = 0,
        checkpoint=None,
        parallel: EvaluatorLike = None,
        cache: CacheLike = None,
        resilience=None,
    ) -> Dict[str, Dict[str, float]]:
        """Score *explorers* at equal *budget* by front hypervolume.

        The reference point is 10% beyond the worst objective values seen
        across all runs, so every front dominates it.

        Each explorer's score records its evaluation budget accounting
        (``evaluations`` actually spent, ``unique_evaluations`` distinct
        design points) and its measured ``wall_time_s``, so explorer
        speedups under ``parallel=``/``cache=`` (forwarded to
        :meth:`run`) are directly comparable instead of anecdotal.

        The comparison degrades gracefully: an explorer whose run fails
        is recorded with an ``{"error": ...}`` entry instead of aborting
        the whole study, transient faults are retried under the backoff
        of *resilience* (a :class:`~repro.resilience.ResiliencePolicy`),
        and a *checkpoint* (:class:`~repro.resilience.CheckpointStore`)
        lets an interrupted comparison resume with completed explorers'
        scores intact.

        Checkpointed scores are computed against that run's own
        reference point; mixing resumed and fresh scores is therefore
        only meaningful when the evaluated kernels are deterministic
        (they are, for the built-in evaluator at a fixed seed).

        A thin wrapper: the fresh explorers run as a
        :func:`repro.campaign.dse_compare_graph` whose ``scores``
        reduction reproduces the shared-reference scoring.
        """
        from repro.campaign import GraphRunner, dse_compare_graph
        from repro.resilience import BackoffPolicy

        backoff = (
            resilience.backoff
            if resilience is not None
            else BackoffPolicy(max_attempts=1)
        )

        resumed: Dict[str, Dict[str, float]] = {}
        fresh: List = []
        for explorer in explorers:
            key = f"{explorer.name}|budget={budget}|seed={seed}"
            if checkpoint is not None and key in checkpoint:
                resumed[explorer.name] = dict(checkpoint.get(key))
                continue
            fresh.append(explorer)

        scores: Dict[str, Dict[str, float]] = dict(resumed)
        computed: Dict[str, Dict[str, float]] = {}
        if fresh:
            graph = dse_compare_graph(
                self, fresh, budget, seed, backoff, parallel, cache
            )
            computed = GraphRunner(observe=False).run(graph).value("scores")
        elif not scores:
            raise ValidationError("compare needs at least one explorer")
        for name, score in computed.items():
            scores[name] = score
            if checkpoint is not None and "error" not in score:
                key = f"{name}|budget={budget}|seed={seed}"
                checkpoint.save(key, score)
                from repro.obs.ledger import get_ledger

                get_ledger().event("checkpoint.saved", cell=key)
        return scores
