"""Operation scheduling (the core HLS phase).

Three schedulers over the :class:`~repro.hls.ir.DataflowGraph` IR:

- :func:`schedule_asap` -- unconstrained as-soon-as-possible;
- :func:`schedule_alap` -- as-late-as-possible against the ASAP makespan
  (the two together give slack/mobility);
- :func:`schedule_list` -- resource-constrained list scheduling with
  mobility-based priority, the production scheduler whose resource knob
  the DSE sweeps.

All schedulers return a :class:`Schedule` mapping operations to start
cycles, with validation helpers used by the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.hls.ir import DataflowGraph, OpKind
from repro.obs.trace import profiled


@dataclass
class Schedule:
    """Start cycle per operation plus derived metrics."""

    graph: DataflowGraph
    start_cycle: Dict[str, int]

    @property
    def makespan(self) -> int:
        """Total latency in cycles."""
        return max(
            (
                self.start_cycle[op.name] + op.latency
                for op in self.graph.operations
            ),
            default=0,
        )

    def resource_usage(self) -> Dict[OpKind, int]:
        """Peak number of simultaneously busy units per kind."""
        peak: Dict[OpKind, int] = {}
        events: Dict[OpKind, Dict[int, int]] = {}
        for op in self.graph.operations:
            duration = max(op.latency, 1)
            timeline = events.setdefault(op.kind, {})
            start = self.start_cycle[op.name]
            timeline[start] = timeline.get(start, 0) + 1
            timeline[start + duration] = timeline.get(start + duration, 0) - 1
        for kind, timeline in events.items():
            level = 0
            best = 0
            for t in sorted(timeline):
                level += timeline[t]
                best = max(best, level)
            peak[kind] = best
        return peak

    def validate(self) -> None:
        """Raise when any data dependence is violated."""
        for op in self.graph.operations:
            for dep_name in op.inputs:
                dep = self.graph.op(dep_name)
                ready = self.start_cycle[dep_name] + dep.latency
                if self.start_cycle[op.name] < ready:
                    raise ValueError(
                        f"{op.name} starts at {self.start_cycle[op.name]} "
                        f"before input {dep_name} finishes at {ready}"
                    )


def schedule_asap(graph: DataflowGraph) -> Schedule:
    """Unconstrained ASAP schedule."""
    start: Dict[str, int] = {}
    for op in graph.operations:
        start[op.name] = max(
            (start[dep] + graph.op(dep).latency for dep in op.inputs),
            default=0,
        )
    return Schedule(graph=graph, start_cycle=start)


def schedule_alap(
    graph: DataflowGraph, deadline: Optional[int] = None
) -> Schedule:
    """ALAP schedule against *deadline* (default: the ASAP makespan)."""
    if deadline is None:
        deadline = schedule_asap(graph).makespan
    finish: Dict[str, int] = {}
    for op in reversed(graph.operations):
        consumer_starts = [
            finish[c] - graph.op(c).latency for c in graph.consumers(op.name)
        ]
        finish[op.name] = min(consumer_starts, default=deadline)
    start = {
        op.name: finish[op.name] - op.latency for op in graph.operations
    }
    if any(s < 0 for s in start.values()):
        raise ValueError(f"deadline {deadline} is infeasible")
    return Schedule(graph=graph, start_cycle=start)


def mobility(graph: DataflowGraph) -> Dict[str, int]:
    """Slack (ALAP - ASAP start) per operation; 0 = on the critical
    path."""
    asap = schedule_asap(graph)
    alap = schedule_alap(graph)
    return {
        name: alap.start_cycle[name] - asap.start_cycle[name]
        for name in asap.start_cycle
    }


@profiled("hls.schedule_list")
def schedule_list(
    graph: DataflowGraph,
    resources: Dict[OpKind, int],
    impl: str = "numpy",
) -> Schedule:
    """Resource-constrained list scheduling.

    *resources* caps the number of concurrently executing units per
    operation kind (kinds absent from the map are unconstrained).
    Priority is lowest mobility first (critical path first), the
    standard heuristic.

    ``impl="scalar"`` walks every cycle and re-sorts the ready list (the
    reference); ``impl="numpy"`` (default) keeps priority/wake state in
    arrays pre-sorted by ``(slack, name)`` and jumps empty cycles to the
    next unit retirement or operand arrival.  Both produce the identical
    ``start_cycle`` map; the equivalence tests pin that.
    """
    for kind, count in resources.items():
        if count < 1:
            raise ValueError(f"resource count for {kind} must be >= 1")
    if impl == "numpy":
        return _list_numpy(graph, resources)
    if impl != "scalar":
        raise ValueError(f"impl must be 'scalar' or 'numpy', got {impl!r}")
    return _list_scalar(graph, resources)


def _list_scalar(
    graph: DataflowGraph, resources: Dict[OpKind, int]
) -> Schedule:
    """Reference cycle-by-cycle list scheduler."""
    slack = mobility(graph)
    remaining_inputs = {
        op.name: len(op.inputs) for op in graph.operations
    }
    ready = [op.name for op in graph.operations if not op.inputs]
    start: Dict[str, int] = {}
    # busy[kind] holds finish cycles of in-flight units of that kind.
    busy: Dict[OpKind, list] = {}
    earliest: Dict[str, int] = {name: 0 for name in ready}
    cycle = 0
    scheduled = 0
    total = len(graph)
    while scheduled < total:
        # Retire finished units.
        for kind in busy:
            busy[kind] = [t for t in busy[kind] if t > cycle]
        # Candidates ready at this cycle, most critical first.
        candidates = sorted(
            (name for name in ready if earliest.get(name, 0) <= cycle),
            key=lambda n: (slack[n], n),
        )
        for name in candidates:
            op = graph.op(name)
            limit = resources.get(op.kind)
            in_flight = busy.setdefault(op.kind, [])
            if limit is not None and len(in_flight) >= limit:
                continue
            start[name] = cycle
            in_flight.append(cycle + max(op.latency, 1))
            ready.remove(name)
            scheduled += 1
            for consumer in graph.consumers(name):
                remaining_inputs[consumer] -= 1
                finish = cycle + op.latency
                earliest[consumer] = max(
                    earliest.get(consumer, 0), finish
                )
                if remaining_inputs[consumer] == 0:
                    ready.append(consumer)
        cycle += 1
    schedule = Schedule(graph=graph, start_cycle=start)
    schedule.validate()
    return schedule


def _list_numpy(
    graph: DataflowGraph, resources: Dict[OpKind, int]
) -> Schedule:
    """Priority-array list scheduler; identical schedule to
    :func:`_list_scalar`.

    Operations are renumbered once into ``(slack, name)`` priority order,
    so each cycle's candidate set -- ready ops whose operands have
    arrived -- is one boolean reduction and already sorted.  Cycles where
    nothing was scheduled are skipped to the next event (earliest busy-
    unit retirement or operand arrival); on such cycles the scalar loop
    provably schedules nothing, so the skip cannot change the result.
    A cycle that *did* schedule is followed cycle-by-cycle: a latency-0
    producer (PHI) can make its consumer a candidate at ``cycle + 1``.
    """
    slack = mobility(graph)
    order = sorted(slack, key=lambda n: (slack[n], n))
    index = {name: i for i, name in enumerate(order)}
    total = len(order)
    latency = [graph.op(name).latency for name in order]
    kind_of = [graph.op(name).kind for name in order]
    consumers = [
        [index[c] for c in graph.consumers(name)] for name in order
    ]
    remaining = np.array(
        [len(graph.op(name).inputs) for name in order], dtype=np.int64
    )
    ready = remaining == 0
    earliest = np.zeros(total, dtype=np.int64)
    start: Dict[str, int] = {}
    busy: Dict[OpKind, list] = {}
    cycle = 0
    scheduled = 0
    while scheduled < total:
        for kind in busy:
            busy[kind] = [t for t in busy[kind] if t > cycle]
        progressed = False
        # Ascending index order == ascending (slack, name): the exact
        # candidate order the scalar path sorts out each cycle.
        for i in np.flatnonzero(ready & (earliest <= cycle)):
            i = int(i)
            limit = resources.get(kind_of[i])
            in_flight = busy.setdefault(kind_of[i], [])
            if limit is not None and len(in_flight) >= limit:
                continue
            start[order[i]] = cycle
            in_flight.append(cycle + max(latency[i], 1))
            ready[i] = False
            scheduled += 1
            progressed = True
            finish = cycle + latency[i]
            for c in consumers[i]:
                remaining[c] -= 1
                if finish > earliest[c]:
                    earliest[c] = finish
                if remaining[c] == 0:
                    ready[c] = True
        if progressed or scheduled >= total:
            cycle += 1
            continue
        # Nothing schedulable: jump to the next retirement or arrival.
        events = [t for lst in busy.values() for t in lst]
        waits = earliest[ready]
        waits = waits[waits > cycle]
        if waits.size:
            events.append(int(waits.min()))
        cycle = min(events) if events else cycle + 1
    schedule = Schedule(graph=graph, start_cycle=start)
    schedule.validate()
    return schedule


def minimum_initiation_interval(
    graph: DataflowGraph, resources: Dict[OpKind, int]
) -> int:
    """Resource-limited lower bound on the pipeline initiation interval:
    ``max_kind ceil(ops_of_kind / units_of_kind)`` (recurrence-free IR,
    so ResMII is the binding constraint)."""
    counts = graph.count_by_kind()
    ii = 1
    for kind, count in counts.items():
        limit = resources.get(kind)
        if limit is not None:
            ii = max(ii, -(-count // limit))
    return ii
