"""SPARTA adapter for the unified :class:`~repro.core.api.Workload`
contract: one evaluation runs a seeded BFS region on the cycle-level
multi-lane simulator (the Sec. III latency-hiding experiment cell)."""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional

from repro.core.api import RunResult, register_workload, require_keys
from repro.core.errors import ValidationError


class SpartaWorkload:
    """``sparta``: cycle-accurate N-lane accelerator over a BFS region."""

    name = "sparta"

    def space(self) -> Dict[str, tuple]:
        return {
            "num_nodes": (48, 96, 128, 256),
            "avg_degree": (6.0, 8.0),
            "num_lanes": (4, 1, 2, 8),
            "contexts_per_lane": (4, 1, 2, 8),
            "num_channels": (4, 2, 8),
            "memory_latency": (100, 50, 200),
            "enable_cache": (True, False),
        }

    def evaluate(
        self,
        config: Mapping[str, Any],
        *,
        seed: int = 0,
        impl: Optional[str] = None,
    ) -> RunResult:
        from repro.sparta.kernels import bfs_tasks, random_graph
        from repro.sparta.simulator import simulate

        if impl not in (None, "scalar", "numpy", "jit"):
            raise ValidationError(
                "sparta supports impl=None|'scalar'|'numpy'|'jit', "
                f"got {impl!r}"
            )
        cfg = require_keys(self.name, config, ("num_nodes",))
        start = time.perf_counter()
        graph = random_graph(
            int(cfg["num_nodes"]),
            avg_degree=float(cfg.get("avg_degree", 8.0)),
            seed=seed,
        )
        region = bfs_tasks(graph, seed=seed)
        stats = simulate(
            region,
            num_lanes=int(cfg.get("num_lanes", 4)),
            contexts_per_lane=int(cfg.get("contexts_per_lane", 4)),
            num_channels=int(cfg.get("num_channels", 4)),
            memory_latency=int(cfg.get("memory_latency", 100)),
            enable_cache=bool(cfg.get("enable_cache", True)),
            impl=impl or "numpy",
        )
        wall = time.perf_counter() - start
        return stats.to_run_result(
            workload=self.name, config=cfg, seed=seed, impl=impl,
            wall_time_s=wall,
        )


register_workload(SpartaWorkload())
