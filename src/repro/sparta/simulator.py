"""Cycle-level simulation of a SPARTA accelerator system.

:class:`SpartaSystem` assembles N accelerator lanes behind the crossbar
NoC and executes a :class:`~repro.sparta.openmp.ParallelForRegion` to
completion, producing :class:`SimulationStats`.  The statistics expose the
quantities the Sec. III claims are about: lane utilization (how well
context switching hides memory latency), cache hit rates, and the
speedup over fewer lanes/contexts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

from repro.core.errors import SimulationTimeout, ValidationError
from repro.core.jit import resolve_impl
from repro.obs.trace import profiled
from repro.sparta.accelerator import AcceleratorLane, LaneConfig
from repro.sparta.noc import CrossbarNoc, NocConfig
from repro.sparta.openmp import ParallelForRegion


@dataclass(frozen=True)
class SimulationStats:
    """Outcome of one simulated region execution."""

    region: str
    cycles: int
    num_lanes: int
    contexts_per_lane: int
    tasks_completed: int
    busy_cycles: int
    stall_cycles: int
    context_switches: int
    cache_hits: int
    cache_misses: int
    memory_requests: int

    @property
    def utilization(self) -> float:
        """Fraction of lane-cycles doing useful work -- the latency-hiding
        figure of merit."""
        total = self.cycles * self.num_lanes
        return self.busy_cycles / total if total else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def tasks_per_kcycle(self) -> float:
        return 1000.0 * self.tasks_completed / self.cycles if self.cycles else 0.0

    def to_run_result(
        self,
        *,
        workload: str = "sparta",
        config=None,
        seed=None,
        impl=None,
        wall_time_s: float = 0.0,
    ):
        """This result in the unified :class:`~repro.core.api.RunResult`
        shape: the statistics fields and derived rates become the
        result's ``metrics``."""
        from dataclasses import asdict

        from repro.core.api import build_run_result

        metrics = asdict(self)
        metrics["utilization"] = self.utilization
        metrics["cache_hit_rate"] = self.cache_hit_rate
        metrics["tasks_per_kcycle"] = self.tasks_per_kcycle
        return build_run_result(
            workload, metrics, config=config, seed=seed, impl=impl,
            wall_time_s=wall_time_s,
        )


class SpartaSystem:
    """N-lane SPARTA accelerator with a shared crossbar NoC."""

    def __init__(
        self,
        num_lanes: int = 4,
        lane_config: LaneConfig = LaneConfig(),
        noc_config: NocConfig = NocConfig(),
        failed_lanes: Optional[Sequence[int]] = None,
    ) -> None:
        if num_lanes < 1:
            raise ValidationError("need at least one lane")
        failed = frozenset(failed_lanes or ())
        if any(i < 0 or i >= num_lanes for i in failed):
            raise ValidationError("failed lane index out of range")
        if len(failed) >= num_lanes:
            raise ValidationError("at least one lane must survive")
        self.failed_lanes = failed
        self.noc = CrossbarNoc(noc_config)
        # Dropped lanes are simply not built: the task queue feeds only
        # survivors, which is exactly how work remaps around a dead lane.
        self.lanes: List[AcceleratorLane] = [
            AcceleratorLane(i, lane_config, self.noc.request)
            for i in range(num_lanes)
            if i not in failed
        ]

    def _stats(self, region: ParallelForRegion, now: int) -> SimulationStats:
        """Statistics snapshot at cycle *now* (complete or partial)."""
        return SimulationStats(
            region=region.name,
            cycles=now,
            num_lanes=len(self.lanes),
            contexts_per_lane=self.lanes[0].config.num_contexts,
            tasks_completed=sum(l.tasks_completed for l in self.lanes),
            busy_cycles=sum(l.busy_cycles for l in self.lanes),
            stall_cycles=sum(l.stall_cycles for l in self.lanes),
            context_switches=sum(l.switches for l in self.lanes),
            cache_hits=self.noc.total_hits,
            cache_misses=self.noc.total_misses,
            memory_requests=self.noc.requests_routed,
        )

    @profiled("sparta.run")
    def run(
        self,
        region: ParallelForRegion,
        max_cycles: int = 5_000_000,
        impl: str = "numpy",
    ) -> SimulationStats:
        """Execute *region* to completion.

        At *max_cycles* raises a structured
        :class:`~repro.core.errors.SimulationTimeout` carrying the
        partial :class:`SimulationStats` accumulated so far, so a
        harness can checkpoint or report progress instead of losing
        the run.

        ``impl="scalar"`` advances strictly cycle by cycle (the
        reference); ``impl="numpy"`` (default) detects spans where every
        lane is stalled on outstanding memory -- the dominant regime at
        DRAM-class latencies -- and retires the whole span in one bulk
        update.  ``impl="jit"`` runs the whole cycle loop as one
        numba-compiled kernel over flattened array state
        (:mod:`repro.sparta.jitsim`) and degrades gracefully to
        ``"numpy"`` when numba is not installed.  The resulting
        :class:`SimulationStats` (cycle count included) are identical
        across all tiers; the equivalence tests pin that.
        """
        if impl not in ("scalar", "numpy", "jit"):
            raise ValidationError(
                f"impl must be 'scalar', 'numpy' or 'jit', got {impl!r}"
            )
        if impl == "jit":
            impl = resolve_impl(impl)  # "numpy" on numba-free installs
        if impl == "jit" and not all(
            lane.fully_idle for lane in self.lanes
        ):
            # Mid-flight context state (a rerun after a timeout) has no
            # task->index mapping into *region*; the object-graph tier
            # handles it, so degrade rather than guess.
            impl = "numpy"
        if impl == "jit":
            from repro.sparta.jitsim import run_jit

            timed_out, now = run_jit(self, region, max_cycles)
            if timed_out:
                raise SimulationTimeout(
                    f"simulation exceeded {max_cycles} cycles",
                    partial_stats=self._stats(region, now),
                    cycles=now,
                )
            return self._stats(region, now)
        queue: Deque = deque(region.tasks)
        now = 0
        while True:
            # Feed idle contexts.
            for lane in self.lanes:
                lane.drain_waiting_finished(now)
                while queue:
                    ctx = lane.idle_context()
                    if ctx is None:
                        break
                    ctx.assign(queue.popleft(), now)
            if not queue and all(lane.fully_idle for lane in self.lanes):
                break
            for lane in self.lanes:
                lane.step(now)
            now += 1
            if now >= max_cycles:
                raise SimulationTimeout(
                    f"simulation exceeded {max_cycles} cycles",
                    partial_stats=self._stats(region, now),
                    cycles=now,
                )
            if impl == "numpy":
                now += self._skip_stall_span(queue, now, max_cycles)
                if now >= max_cycles:
                    raise SimulationTimeout(
                        f"simulation exceeded {max_cycles} cycles",
                        partial_stats=self._stats(region, now),
                        cycles=now,
                    )
        return self._stats(region, now)

    def _skip_stall_span(
        self, queue: Deque, now: int, max_cycles: int
    ) -> int:
        """Cycles to fast-forward from *now* while every lane only
        stalls.

        Each skipped cycle is exactly one all-lanes-stall iteration of
        the scalar loop: the feed is a no-op (nothing drains before the
        earliest ``ready_at``; the queue cannot feed because either it
        is empty or no context is idle), no lane state changes, and
        every lane charges one stall cycle -- accounted here in bulk.
        """
        # Cheap precheck: a running lane or pending switch means work.
        for lane in self.lanes:
            if lane._current is not None or lane._switch_stall > 0:
                return 0
        if queue and any(
            lane.idle_context() is not None for lane in self.lanes
        ):
            return 0
        wake = float("inf")
        for lane in self.lanes:
            lane_wake = lane.stall_wake(now)
            if lane_wake is None:
                return 0
            if lane_wake < wake:
                wake = lane_wake
        if wake == float("inf"):
            return 0  # fully idle: the top-of-loop check handles it
        skip = min(int(wake), max_cycles) - now
        if skip <= 0:
            return 0
        for lane in self.lanes:
            lane.stall_cycles += skip
        return skip


def simulate(
    region: ParallelForRegion,
    num_lanes: int = 4,
    contexts_per_lane: int = 4,
    num_channels: int = 4,
    memory_latency: int = 100,
    enable_cache: bool = True,
    switch_penalty: int = 1,
    failed_lanes: Optional[Sequence[int]] = None,
    impl: str = "numpy",
) -> SimulationStats:
    """Convenience wrapper: build a system and run *region* once."""
    system = SpartaSystem(
        num_lanes=num_lanes,
        lane_config=LaneConfig(
            num_contexts=contexts_per_lane, switch_penalty=switch_penalty
        ),
        noc_config=NocConfig(
            num_channels=num_channels,
            memory_latency=memory_latency,
            enable_cache=enable_cache,
        ),
        failed_lanes=failed_lanes,
    )
    return system.run(region, impl=impl)
