"""AxC HTCONV adapter for the unified :class:`~repro.core.api.Workload`
contract: one evaluation runs the hybrid x2 transposed convolution on a
seeded feature map and scores its fidelity and MAC savings against the
exact kernel (the Table I quality/cost trade-off cell)."""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.core.api import (
    RunResult,
    build_run_result,
    register_workload,
    require_keys,
)
from repro.core.errors import ValidationError


class HTConvWorkload:
    """``axc-htconv``: foveated hybrid transposed convolution."""

    name = "axc-htconv"

    def space(self) -> Dict[str, tuple]:
        return {
            "channels": (4, 8, 16),
            "height": (16, 24, 32),
            "width": (16, 24, 32),
            "kernel": (3, 5),
            "coverage": (0.25, 0.0, 0.5, 1.0),
        }

    def evaluate(
        self,
        config: Mapping[str, Any],
        *,
        seed: int = 0,
        impl: Optional[str] = None,
    ) -> RunResult:
        from repro.axc.htconv import FovealRegion, htconv_x2
        from repro.axc.macs import MacCounter
        from repro.core.metrics import mse, psnr

        if impl not in (None, "scalar", "numpy"):
            raise ValidationError(
                f"axc-htconv supports impl=None|'scalar'|'numpy', got {impl!r}"
            )
        cfg = require_keys(
            self.name, config, ("channels", "height", "width")
        )
        c = int(cfg["channels"])
        h = int(cfg["height"])
        w = int(cfg["width"])
        t = int(cfg.get("kernel", 3))
        coverage = float(cfg.get("coverage", 0.25))
        rng = np.random.default_rng(np.random.SeedSequence([seed, c, h, w]))
        x = rng.normal(size=(c, h, w))
        kernel = rng.normal(size=(c, t, t))
        fovea = FovealRegion.centered(h, w, coverage)

        start = time.perf_counter()
        counter = MacCounter()
        hybrid = htconv_x2(
            x, kernel, fovea, counter=counter, impl=impl or "numpy"
        )
        wall = time.perf_counter() - start

        exact_counter = MacCounter()
        exact = htconv_x2(
            x, kernel, FovealRegion.everything(),
            counter=exact_counter, layer_name="exact", impl=impl or "numpy",
        )
        macs = sum(counter.macs.values())
        exact_macs = sum(exact_counter.macs.values())
        quality_db = psnr(exact, hybrid, peak=float(np.max(np.abs(exact))))
        metrics = {
            "mse": mse(exact, hybrid),
            "psnr_db": (
                quality_db if np.isfinite(quality_db) else 1e9
            ),
            "macs": macs,
            "interp_adds": sum(counter.interp_adds.values()),
            "exact_macs": exact_macs,
            "mac_savings": 1.0 - (macs / exact_macs if exact_macs else 0.0),
            "foveal_coverage": fovea.coverage(h, w),
        }
        return build_run_result(
            self.name, metrics, config=cfg, seed=seed, impl=impl,
            wall_time_s=wall,
        )


register_workload(HTConvWorkload())
