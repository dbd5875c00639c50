"""The full benchmarking-campaign matrix (paper Sec. VI).

The project "conducted a benchmarking campaign ... by using the most
appropriate profiling tools for CPU, GPU, and FPGA architectures in
different stages of the DL pipeline (i.e., mainly during training and
inference)".  :func:`run_campaign` reproduces the campaign's artifact: a
device x storage matrix of end-to-end results with per-stage bottleneck
attribution, the input to the trade-off analysis the paper describes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import (
    CampaignCellError,
    TransientFault,
    ValidationError,
)
from repro.exec.parallel import CacheLike, EvaluatorLike
from repro.hetero.devices import (
    CPU_XEON,
    ComputeDevice,
    FPGA_ALVEO,
    GPU_A100,
)
from repro.hetero.pipeline import (
    PipelineResult,
    simulate_inference,
    simulate_training,
)
from repro.hetero.profiler import bottleneck_stage
from repro.hetero.storage import (
    NVME_SSD,
    SATA_SSD,
    StorageDevice,
    computational_storage,
)
from repro.hetero.workload import SegmentationWorkload

DEFAULT_DEVICES: Tuple[ComputeDevice, ...] = (CPU_XEON, GPU_A100, FPGA_ALVEO)
DEFAULT_STORAGE: Tuple[StorageDevice, ...] = (
    SATA_SSD,
    NVME_SSD,
    computational_storage(),
)


@dataclass(frozen=True)
class CampaignCell:
    """One (device, storage, phase) measurement.

    *device* is the scheduled matrix coordinate.  Under fault injection
    *attempts* counts the executions the cell took (1 = first try
    succeeded) and *executed_on* names the surviving device the work
    actually ran on when the scheduled device dropped out.
    """

    device: str
    storage: str
    phase: str
    total_seconds: float
    throughput_volumes_s: float
    energy_j: float
    bottleneck: str
    attempts: int = 1
    executed_on: Optional[str] = None

    @property
    def key(self) -> str:
        """Stable cell identifier used by checkpoints and reports."""
        return f"{self.device}|{self.storage}|{self.phase}"

    def to_record(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "CampaignCell":
        return cls(**record)

    def to_run_result(
        self,
        *,
        workload: str = "hetero-cell",
        config=None,
        seed=None,
        impl=None,
        wall_time_s: float = 0.0,
    ):
        """This cell in the unified :class:`~repro.core.api.RunResult`
        shape: the cell's fields become the result's ``metrics``."""
        from repro.core.api import build_run_result

        metrics = {
            "device": self.device,
            "storage": self.storage,
            "phase": self.phase,
            "total_seconds": self.total_seconds,
            "throughput_volumes_s": self.throughput_volumes_s,
            "energy_j": self.energy_j,
            "bottleneck": self.bottleneck,
        }
        if self.executed_on is not None:
            metrics["executed_on"] = self.executed_on
        return build_run_result(
            workload, metrics, config=config, seed=seed, impl=impl,
            wall_time_s=wall_time_s, attempts=self.attempts,
        )

    @classmethod
    def from_run_result(cls, result) -> "CampaignCell":
        """Inverse of :meth:`to_run_result`: rebuild the cell from the
        uniform interchange shape."""
        metrics = result.metrics
        return cls(
            device=str(metrics["device"]),
            storage=str(metrics["storage"]),
            phase=str(metrics["phase"]),
            total_seconds=float(metrics["total_seconds"]),
            throughput_volumes_s=float(metrics["throughput_volumes_s"]),
            energy_j=float(metrics["energy_j"]),
            bottleneck=str(metrics["bottleneck"]),
            attempts=int(result.attempts),
            executed_on=metrics.get("executed_on"),
        )


def _campaign_cell_task(
    args: Tuple[SegmentationWorkload, ComputeDevice, StorageDevice, str],
) -> Dict[str, Any]:
    """Evaluate one campaign cell; module-level so process pools can
    ship it, returning a JSON record so result caches can store it."""
    workload, device, storage, phase = args
    simulate = simulate_training if phase == "training" else simulate_inference
    result: PipelineResult = simulate(workload, device=device, storage=storage)
    return CampaignCell(
        device=device.name,
        storage=storage.name,
        phase=phase,
        total_seconds=result.total_seconds,
        throughput_volumes_s=result.throughput_volumes_s,
        energy_j=result.energy_j,
        bottleneck=bottleneck_stage(result).stage,
    ).to_record()


def run_campaign(
    workload: SegmentationWorkload = SegmentationWorkload(),
    devices: Tuple[ComputeDevice, ...] = DEFAULT_DEVICES,
    storage_tiers: Tuple[StorageDevice, ...] = DEFAULT_STORAGE,
    parallel: EvaluatorLike = None,
    cache: CacheLike = None,
) -> List[CampaignCell]:
    """Sweep the device x storage matrix for training and inference.

    FPGA cells skip the training phase (the campaign deploys FPGAs for
    inference only), mirroring the device capability flags.

    Cells are independent pure evaluations: *parallel* fans them out
    over a :class:`~repro.exec.ParallelEvaluator` (worker count or a
    ready engine) and *cache* memoizes cells across invocations by the
    request digest of (workload, device, storage, phase).  Results are
    returned in sweep order either way, so parallel and serial runs are
    identical.

    A thin wrapper: the matrix is one layer of a
    :class:`~repro.campaign.CampaignGraph` (built by
    :func:`repro.campaign.hetero_campaign_graph`) executed by
    :class:`~repro.campaign.GraphRunner`; build the graph directly to
    compose the matrix into larger campaigns.
    """
    from repro.campaign import GraphRunner, hetero_campaign_graph

    graph = hetero_campaign_graph(
        workload, tuple(devices), tuple(storage_tiers)
    )
    with GraphRunner(parallel=parallel, cache=cache, observe=False) as runner:
        return runner.run(graph).value("cells")


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of a resilient campaign: every scheduled cell appears
    exactly once, as a measurement or as a recorded error."""

    cells: List[CampaignCell]
    errors: List[CampaignCellError]
    total_backoff_s: float

    @property
    def total_cells(self) -> int:
        return len(self.cells) + len(self.errors)

    @property
    def failure_rate(self) -> float:
        if self.total_cells == 0:
            return 0.0
        return len(self.errors) / self.total_cells

    @property
    def total_attempts(self) -> int:
        return sum(c.attempts for c in self.cells) + sum(
            e.attempts for e in self.errors
        )

    def keys(self) -> List[str]:
        """Sorted keys of every reported cell (results and errors)."""
        return sorted(
            [c.key for c in self.cells] + [e.key for e in self.errors]
        )


def _scheduled_cells(
    devices: Tuple[ComputeDevice, ...],
    storage_tiers: Tuple[StorageDevice, ...],
) -> List[Tuple[ComputeDevice, StorageDevice, str]]:
    """The full campaign matrix in deterministic sweep order."""
    cells = []
    for device in devices:
        for storage in storage_tiers:
            if device.supports_training:
                cells.append((device, storage, "training"))
            cells.append((device, storage, "inference"))
    return cells


def _resilient_cell_task(args: Tuple) -> Dict[str, Any]:
    """Run one resilient campaign cell (module-level: picklable).

    The whole per-cell contract lives here so serial and parallel
    sweeps share one code path: key-addressed fault injection, bounded
    retry under the backoff policy, and the terminal
    :class:`CampaignCellError` record when retries are exhausted.
    Returns ``{"record": ..., "backoff_s": ...}`` where the record is
    either a cell or an error in checkpoint format.
    """
    from repro.resilience import resilient_run

    (workload, device, actual, executed_on, storage, phase, injector,
     policy, key) = args
    faulty_storage = injector.faulty_storage(storage, key=key)
    simulate = simulate_training if phase == "training" else (
        simulate_inference
    )

    def run_cell() -> PipelineResult:
        return simulate(workload, device=actual, storage=faulty_storage)

    try:
        outcome = resilient_run(
            run_cell,
            policy=policy,
            rng=injector.derive_rng(f"retry|{key}"),
        )
    except TransientFault as exc:
        error = CampaignCellError(
            f"cell failed after {policy.max_attempts} attempts: {exc}",
            device=device.name,
            storage=storage.name,
            phase=phase,
            attempts=policy.max_attempts,
            cause=exc,
        )
        return {"record": error.to_record(), "backoff_s": 0.0}
    except Exception as exc:  # permanent fault / validation error
        error = CampaignCellError(
            f"cell failed: {exc}",
            device=device.name,
            storage=storage.name,
            phase=phase,
            attempts=1,
            cause=exc,
        )
        return {"record": error.to_record(), "backoff_s": 0.0}
    result: PipelineResult = outcome.value
    cell = CampaignCell(
        device=device.name,
        storage=storage.name,
        phase=phase,
        total_seconds=result.total_seconds,
        throughput_volumes_s=result.throughput_volumes_s,
        energy_j=result.energy_j,
        bottleneck=bottleneck_stage(result).stage,
        attempts=outcome.attempts,
        executed_on=executed_on,
    )
    return {"record": cell.to_record(), "backoff_s": outcome.backoff_s}


def run_resilient_campaign(
    workload: SegmentationWorkload = SegmentationWorkload(),
    devices: Tuple[ComputeDevice, ...] = DEFAULT_DEVICES,
    storage_tiers: Tuple[StorageDevice, ...] = DEFAULT_STORAGE,
    injector: Optional["FaultInjector"] = None,
    checkpoint: Optional["CheckpointStore"] = None,
    parallel: EvaluatorLike = None,
    resilience: Optional["ResiliencePolicy"] = None,
) -> CampaignReport:
    """The campaign matrix under fault injection, without aborting.

    Each scheduled (device, storage, phase) cell runs through
    :func:`~repro.resilience.resilient_run`: transient storage faults
    injected by *injector* are retried under the bounded backoff of
    *resilience* (a :class:`~repro.resilience.ResiliencePolicy`); a cell
    that still fails is recorded as a
    :class:`~repro.core.errors.CampaignCellError` and the sweep
    continues.  Devices lost to dropout have their cells remapped to
    the first surviving device (recorded via ``executed_on``).  With a
    *checkpoint*, completed cells are persisted and skipped on resume
    -- fault streams are key-addressed, so resuming reproduces the
    exact outcome of an uninterrupted run.

    *parallel* evaluates the remaining cells concurrently.  Fault and
    retry streams are derived from each cell's key, never from
    submission order, and per-cell retry happens inside the worker, so
    a parallel sweep reports bit-identical cells, errors and backoff
    accounting to a serial one (results and checkpoint writes stay in
    scheduled sweep order).  Results are not content-cached here: under
    fault injection a cell's outcome is part of the injected world, not
    a reusable pure value.

    A thin wrapper: the sweep is a
    :func:`repro.campaign.resilient_campaign_graph` executed by
    :class:`~repro.campaign.GraphRunner` (which supplies the serial
    incremental / parallel batch checkpointing and resume).
    """
    from repro.campaign import GraphRunner, resilient_campaign_graph
    from repro.obs.ledger import get_ledger
    from repro.resilience import BackoffPolicy, FaultInjector

    ledger = get_ledger()
    injector = injector or FaultInjector()
    backoff = (
        resilience.backoff if resilience is not None else BackoffPolicy()
    )

    ledger.event(
        "run.started",
        kind="resilient_campaign",
        devices=len(devices),
        storage_tiers=len(storage_tiers),
    )
    graph = resilient_campaign_graph(
        workload, tuple(devices), tuple(storage_tiers), injector, backoff
    )
    with GraphRunner(
        parallel=parallel, checkpoint=checkpoint, observe=False
    ) as runner:
        run = runner.run(graph)
    report: CampaignReport = run.value("report")
    ledger.event(
        "run.finished",
        kind="resilient_campaign",
        cells=len(report.cells),
        errors=len(report.errors),
        resumed=run.counts()["resumed"],
    )
    return report


def best_configuration(
    cells: List[CampaignCell], phase: str, objective: str = "time"
) -> CampaignCell:
    """The winning campaign cell for *phase* under *objective*
    (``"time"`` or ``"energy"``)."""
    candidates = [c for c in cells if c.phase == phase]
    if not candidates:
        raise ValidationError(f"no campaign cells for phase {phase!r}")
    if objective == "time":
        return min(candidates, key=lambda c: c.total_seconds)
    if objective == "energy":
        return min(candidates, key=lambda c: c.energy_j)
    raise ValidationError(f"unknown objective {objective!r}")


def bottleneck_summary(cells: List[CampaignCell]) -> Dict[str, int]:
    """How often each stage is the bottleneck across the matrix -- the
    evidence behind the campaign's 'address the I/O path' conclusion."""
    summary: Dict[str, int] = {}
    for cell in cells:
        summary[cell.bottleneck] = summary.get(cell.bottleneck, 0) + 1
    return summary
