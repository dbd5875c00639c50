"""HLS adapter for the unified :class:`~repro.core.api.Workload`
contract: one evaluation synthesizes one (kernel, directives) point
through the full scheduling/allocation/estimation flow."""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional

from repro.core.api import RunResult, build_run_result, register_workload
from repro.core.errors import ValidationError


#: Kernel names :func:`repro.hls.kernels.make_kernel` builds.
KERNELS = ("gemm", "dot", "fir8", "gather")


class HLSWorkload:
    """``hls``: synthesize one directive configuration of one kernel."""

    name = "hls"

    def space(self) -> Dict[str, tuple]:
        return {
            "kernel": KERNELS,
            "size": (64, 128, 256),
            "unroll": (2, 1, 4, 8, 16),
            "pipeline": (True, False),
            "array_partition": (2, 1, 4, 8),
            "mul_units": (2, 1, 4, 8),
            "add_units": (2, 1, 4, 8),
        }

    def evaluate(
        self,
        config: Mapping[str, Any],
        *,
        seed: int = 0,
        impl: Optional[str] = None,
    ) -> RunResult:
        from repro.hls.directives import Directives, synthesize
        from repro.hls.estimation import ResourceLibrary
        from repro.hls.kernels import make_kernel

        if impl not in (None, "scalar", "numpy"):
            raise ValidationError(
                f"hls supports impl=None|'scalar'|'numpy', got {impl!r}"
            )
        cfg = dict(config)
        kernel = str(cfg.get("kernel", "gemm"))
        if kernel not in KERNELS:
            raise ValidationError(
                f"hls config key 'kernel' must be one of {KERNELS}, "
                f"got {kernel!r}"
            )
        size = int(cfg.get("size", 64))
        if size < 1:
            raise ValidationError(
                f"hls config key 'size' must be >= 1, got {size}"
            )
        nest = make_kernel(kernel, size=size)
        directives = Directives(
            unroll=int(cfg.get("unroll", 1)),
            pipeline=bool(cfg.get("pipeline", False)),
            array_partition=int(cfg.get("array_partition", 1)),
            mul_units=int(cfg.get("mul_units", 1)),
            add_units=int(cfg.get("add_units", 1)),
        )
        start = time.perf_counter()
        result = synthesize(nest, directives, ResourceLibrary())
        wall = time.perf_counter() - start
        metrics = {
            "latency_s": result.latency_s,
            "area_score": result.estimate.area_score,
            "total_cycles": result.total_cycles,
            "iteration_cycles": result.iteration_cycles,
            "initiation_interval": result.initiation_interval,
            "luts": result.estimate.luts,
            "ffs": result.estimate.ffs,
            "dsps": result.estimate.dsps,
            "clock_mhz": result.estimate.clock_mhz,
        }
        return build_run_result(
            self.name, metrics, config=cfg, seed=seed, impl=impl,
            wall_time_s=wall,
        )


register_workload(HLSWorkload())
