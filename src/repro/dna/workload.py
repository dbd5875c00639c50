"""DNA storage adapter for the unified :class:`~repro.core.api.Workload`
contract: one evaluation round-trips a seeded payload through the full
Fig. 6b pipeline (RS code -> oligos -> noisy channel -> clustering ->
consensus -> RS decode) and reports quality and accelerator work."""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.core.api import RunResult, register_workload, require_keys
from repro.core.errors import ValidationError


class DNAPipelineWorkload:
    """``dna-pipeline``: end-to-end DNA storage round trip."""

    name = "dna-pipeline"

    def space(self) -> Dict[str, tuple]:
        return {
            "payload_bytes": (32, 64, 128),
            "rs_n": (63, 127, 255),
            "rs_k": (47, 111, 223),
            "mean_coverage": (6.0, 10.0, 16.0),
            "substitution_rate": (0.01, 0.003, 0.03),
            "indel_rate": (0.005, 0.001, 0.01),
        }

    def evaluate(
        self,
        config: Mapping[str, Any],
        *,
        seed: int = 0,
        impl: Optional[str] = None,
    ) -> RunResult:
        from repro.dna.channel import ChannelParams
        from repro.dna.decoder import DNAStorageSystem

        if impl not in (None, "scalar", "numpy", "jit"):
            raise ValidationError(
                f"dna-pipeline supports impl=None|'scalar'|'numpy'|'jit', "
                f"got {impl!r}"
            )
        cfg = require_keys(self.name, config, ("payload_bytes",))
        payload_bytes = int(cfg["payload_bytes"])
        indel = float(cfg.get("indel_rate", 0.005))
        params = ChannelParams(
            substitution_rate=float(cfg.get("substitution_rate", 0.01)),
            insertion_rate=indel,
            deletion_rate=indel,
            mean_coverage=float(cfg.get("mean_coverage", 10.0)),
        )
        seq = np.random.SeedSequence([seed, payload_bytes])
        payload_rng, channel_seed = seq.spawn(2)
        payload = bytes(
            int(v)
            for v in np.random.default_rng(payload_rng).integers(
                0, 256, payload_bytes
            )
        )
        system = DNAStorageSystem(
            rs_n=int(cfg.get("rs_n", 63)),
            rs_k=int(cfg.get("rs_k", 47)),
            channel_params=params,
            seed=np.random.default_rng(channel_seed),
        )
        start = time.perf_counter()
        report = system.roundtrip(payload)
        wall = time.perf_counter() - start
        return report.to_run_result(
            workload=self.name, config=cfg, seed=seed, impl=impl,
            wall_time_s=wall,
            extra_metrics={"payload_match": report.payload == payload},
        )


register_workload(DNAPipelineWorkload())
