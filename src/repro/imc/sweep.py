"""Batched IMC crossbar design sweeps (paper Sec. IV campaigns).

The IMC campaign grids sweep crossbar geometry, device technology and
peripheral non-idealities into accuracy/energy curves.  Each sweep cell
programs a crossbar (the dominant cost: iterative program-and-verify
over the full array) and measures MVM fidelity against the ideal
result, so a grid of cells is exactly the embarrassingly-parallel,
pure-function shape :mod:`repro.exec` accelerates: cells fan out over
the process pool and memoize by content digest.

Determinism: every cell derives its random streams from the *spec*
content (via :func:`repro.core.rng.make_rng` on a spec-local seed),
never from sweep position or worker identity, so serial, parallel and
cache-warmed sweeps produce identical records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.errors import ValidationError
from repro.exec.parallel import CacheLike, EvaluatorLike
from repro.imc.crossbar import AnalogCrossbar, CrossbarConfig
from repro.imc.devices import DeviceParams, PCM_PARAMS, RRAM_PARAMS

_DEVICE_PRESETS: Dict[str, DeviceParams] = {
    "rram": RRAM_PARAMS,
    "pcm": PCM_PARAMS,
}


@dataclass(frozen=True)
class CrossbarSweepSpec:
    """One cell of a crossbar campaign grid.

    *device* names a technology preset (``"rram"`` / ``"pcm"``) so the
    spec stays a compact, digest-friendly value object.  *seed* drives
    every random stream of the cell (weights, inputs, device
    variability); *num_inputs* MVMs are averaged per cell.
    """

    rows: int = 64
    cols: int = 64
    device: str = "rram"
    wire_resistance_ohm: float = 1.0
    use_program_verify: bool = True
    num_inputs: int = 8
    t_seconds: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("crossbar dimensions must be >= 1")
        if self.device not in _DEVICE_PRESETS:
            raise ValidationError(
                f"unknown device preset {self.device!r} "
                f"(choose from {sorted(_DEVICE_PRESETS)})"
            )
        if self.num_inputs < 1:
            raise ValidationError("num_inputs must be >= 1")
        if self.t_seconds <= 0:
            raise ValidationError("t_seconds must be positive")

    @property
    def device_params(self) -> DeviceParams:
        return _DEVICE_PRESETS[self.device]


def evaluate_crossbar_spec(spec: CrossbarSweepSpec) -> Dict[str, Any]:
    """Program and measure one crossbar cell -> JSON record.

    Module-level and pure so process pools can ship it and result
    caches can store it: the record is a deterministic function of the
    spec alone.
    """
    config = CrossbarConfig(
        rows=spec.rows,
        cols=spec.cols,
        device=spec.device_params,
        wire_resistance_ohm=spec.wire_resistance_ohm,
        use_program_verify=spec.use_program_verify,
    )
    crossbar = AnalogCrossbar(config, seed=spec.seed)
    data_rng = np.random.default_rng(
        np.random.SeedSequence([spec.seed, spec.rows, spec.cols])
    )
    weights = data_rng.uniform(-1.0, 1.0, size=(spec.rows, spec.cols))
    crossbar.program_weights(weights)

    squared = 0.0
    worst = 0.0
    reference_power = 0.0
    for _ in range(spec.num_inputs):
        x = data_rng.uniform(-1.0, 1.0, size=spec.rows)
        measured = crossbar.mvm(x, t_seconds=spec.t_seconds)
        ideal = weights.T @ x
        err = measured - ideal
        squared += float(np.mean(err**2))
        worst = max(worst, float(np.max(np.abs(err))))
        reference_power += float(np.mean(ideal**2))
    rms_error = float(np.sqrt(squared / spec.num_inputs))
    reference_rms = float(np.sqrt(reference_power / spec.num_inputs))
    return {
        "rows": spec.rows,
        "cols": spec.cols,
        "device": spec.device,
        "wire_resistance_ohm": spec.wire_resistance_ohm,
        "use_program_verify": spec.use_program_verify,
        "seed": spec.seed,
        "rms_error": rms_error,
        "max_error": worst,
        "relative_rms_error": (
            rms_error / reference_rms if reference_rms else 0.0
        ),
        "adc_conversions": crossbar.ledger.adc_conversions,
        "dac_conversions": crossbar.ledger.dac_conversions,
        "energy_j": crossbar.ledger.total_energy_j,
    }


def crossbar_sweep(
    specs: Sequence[CrossbarSweepSpec],
    parallel: EvaluatorLike = None,
    cache: CacheLike = None,
) -> List[Dict[str, Any]]:
    """Evaluate a grid of crossbar specs, in spec order.

    *parallel* fans the cells out over a
    :class:`~repro.exec.ParallelEvaluator`; *cache* memoizes them by
    request digest across sweeps.  Order and values are identical to a
    serial ``[evaluate_crossbar_spec(s) for s in specs]``.

    A thin wrapper: the grid is one layer of a
    :class:`~repro.campaign.CampaignGraph` (one ``imc-crossbar``
    :class:`~repro.campaign.EvalNode` per spec plus a record-rebuilding
    reduction) executed by :class:`~repro.campaign.GraphRunner`; use
    :func:`repro.campaign.crossbar_sweep_graph` directly to compose
    sweeps into larger campaigns.
    """
    from repro.campaign import GraphRunner, crossbar_sweep_graph

    graph = crossbar_sweep_graph(specs)
    with GraphRunner(parallel=parallel, cache=cache, observe=False) as runner:
        return runner.run(graph).value("rows")


#: The spec-identity keys every sweep record echoes (in record order).
_ROW_IDENTITY = (
    "rows", "cols", "device", "wire_resistance_ohm", "use_program_verify",
)


def sweep_row_to_run_result(row: Dict[str, Any]):
    """Lift one sweep record into the uniform
    :class:`~repro.core.api.RunResult` interchange form.

    The full record rides in ``metrics`` so
    :func:`sweep_row_from_run_result` round-trips it byte-identically;
    the spec-identity keys double as the result's ``config`` and the
    record's seed as its ``seed``.
    """
    from repro.core.api import build_run_result

    return build_run_result(
        "imc-crossbar",
        dict(row),
        config={k: row[k] for k in _ROW_IDENTITY if k in row},
        seed=int(row.get("seed", 0)),
    )


def sweep_row_from_run_result(result) -> Dict[str, Any]:
    """Inverse of :func:`sweep_row_to_run_result`: the legacy record."""
    return dict(result.metrics)


def sweep_grid(
    num_cells: int,
    rows: int = 64,
    cols: int = 64,
    devices: Tuple[str, ...] = ("rram", "pcm"),
    wire_resistances: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    num_inputs: int = 8,
    seed: int = 0,
    evaluate: bool = False,
    parallel: EvaluatorLike = None,
    cache: CacheLike = None,
):
    """A deterministic campaign grid of *num_cells* distinct specs.

    Cycles device technology and wire resistance while advancing the
    per-cell seed, the standard shape of the Sec. IV variability
    campaigns (n repetitions per corner).

    By default returns the spec list (legacy behaviour).  With
    ``evaluate=True`` -- implied when ``parallel=`` or ``cache=`` is
    given -- the grid is run through :func:`crossbar_sweep` and the
    evaluated records are returned instead, honouring the suite-wide
    ``parallel=`` / ``cache=`` contract (see :mod:`repro.core.api`)
    exactly like ``DSERunner.run`` and the hetero campaigns.
    """
    if num_cells < 1:
        raise ValidationError("num_cells must be >= 1")
    specs = []
    for i in range(num_cells):
        specs.append(
            CrossbarSweepSpec(
                rows=rows,
                cols=cols,
                device=devices[i % len(devices)],
                wire_resistance_ohm=wire_resistances[
                    (i // len(devices)) % len(wire_resistances)
                ],
                num_inputs=num_inputs,
                seed=seed + i,
            )
        )
    if evaluate or parallel is not None or cache is not None:
        return crossbar_sweep(specs, parallel=parallel, cache=cache)
    return specs


__all__ = [
    "CrossbarSweepSpec",
    "crossbar_sweep",
    "evaluate_crossbar_spec",
    "sweep_grid",
    "sweep_row_from_run_result",
    "sweep_row_to_run_result",
]
