"""Outside-in timing of the program's layers for the traced run.

Nothing under ``src/`` changes: a probe replaces the *instance*
attribute of one live object (``evaluator.map``, ``cache.get``,
``cache.put``) with a timing wrapper that calls the original bound
method, so only the benchmark's own objects are affected and the class
stays untouched.  Kernel time comes from the ``RunResult.wall_time_s``
of the records a map computed; kernels run in pool workers whose
clocks the benchmark cannot read directly.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence

from measure import SpanStore, now


class MapProbe:
    """Spans around ``ParallelEvaluator.map`` and the attached
    ``ResultCache.get``/``put`` of one evaluator.

    Each ``exec.map`` span records its task count, the keys it served
    (so the analysis can link it to requests), how many tasks it
    computed, and their kernel time by registry workload.  A synthetic
    ``kernel`` child span of length ``sum(kernel) / min(workers,
    computed)`` stands for the kernels' share of the map wall time; the
    rest of the map's self time is dispatch overhead.
    """

    def __init__(self, store: SpanStore, evaluator: Any) -> None:
        self.store = store
        self.evaluator = evaluator
        self.workers = evaluator.max_workers if evaluator.mode != "serial" \
            else 1
        self._local = threading.local()
        self._orig_map = evaluator.map
        evaluator.map = self._map
        self._orig_get = self._orig_put = None
        self.attach_cache(evaluator.cache)

    def attach_cache(self, cache: Any) -> None:
        """Probe *cache* (call again after swapping in a fresh cache)."""
        if cache is None:
            return
        self._orig_get, self._orig_put = cache.get, cache.put
        cache.get = self._get
        cache.put = self._put

    # ----------------------------------------------------------- wrappers

    def _current(self) -> Optional[Dict[str, Any]]:
        return getattr(self._local, "map", None)

    def _get(self, key: str) -> Any:
        start = now()
        value = self._orig_get(key)
        end = now()
        frame = self._current()
        parent = frame["id"] if frame is not None else None
        self.store.add("cache.get", start, end, parent=parent,
                       hit=value is not None)
        if frame is not None:
            frame["gets"].append((key, value is not None, end))
        return value

    def _put(self, key: str, value: Any) -> None:
        start = now()
        self._orig_put(key, value)
        end = now()
        frame = self._current()
        parent = frame["id"] if frame is not None else None
        self.store.add("cache.put", start, end, parent=parent)
        if frame is not None:
            frame["first_put"] = min(frame.get("first_put", end), start)

    def _map(
        self, fn: Any, tasks: Sequence[Any],
        keys: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        tasks = list(tasks)
        start = now()
        span_id = self.store.add("exec.map", start, start)
        frame = {"id": span_id, "gets": []}
        self._local.map = frame
        try:
            results = self._orig_map(fn, tasks, keys=keys)
        finally:
            self._local.map = None
        end = now()
        hit_keys = {key for key, hit, _ in frame["gets"] if hit}
        computed: List[int] = []
        seen = set()
        for index in range(len(tasks)):
            key = keys[index] if keys is not None else None
            if key is None:
                computed.append(index)
            elif key not in hit_keys and key not in seen:
                computed.append(index)
            if key is not None:
                seen.add(key)
        kernels = []
        for index in computed:
            record = results[index]
            if isinstance(record, dict) and "wall_time_s" in record:
                kernels.append((record.get("workload", "?"),
                                float(record["wall_time_s"])))
        kernel_s = sum(seconds for _, seconds in kernels)
        span = self.store.spans[span_id]
        span.update(
            end=end, tasks=len(tasks), computed=len(computed),
            hits=sum(1 for _, hit, _ in frame["gets"] if hit),
            keys=list(keys) if keys is not None else [],
            kernel_s=kernel_s, kernels=kernels,
        )
        if kernels:
            lanes = max(1, min(self.workers, len(computed)))
            k_start = max([start] + [t for _, _, t in frame["gets"]])
            k_end = min(k_start + kernel_s / lanes,
                        frame.get("first_put", end), end)
            self.store.add("kernel", k_start, max(k_start, k_end),
                           parent=span_id, lanes=lanes)
        return results
