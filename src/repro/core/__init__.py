"""Shared numerics, metrics and reporting utilities.

Everything in here is domain-neutral: fixed-point arithmetic used by the
approximate-computing and IMC stacks, Pareto-front utilities used by the DSE
engine, image/accuracy metrics, deterministic RNG helpers and ASCII table
rendering used by the benchmark harness.
"""

from repro.core.api import (
    RunResult,
    Workload,
    build_run_result,
    check_workload,
    ensure_default_workloads,
    example_config,
    get_workload,
    register_workload,
    request_digest,
    workload_names,
)
from repro.core.errors import (
    CampaignCellError,
    DeviceFault,
    ReproError,
    SimulationTimeout,
    StateError,
    TransientFault,
    ValidationError,
)
from repro.core.fixedpoint import FixedPointFormat, quantize, dequantize_int
from repro.core.metrics import mse, psnr, classification_accuracy
from repro.core.pareto import (
    dominates,
    pareto_front,
    pareto_indices,
    hypervolume_2d,
)
from repro.core.rng import make_rng
from repro.core.tables import Table
from repro.core.units import (
    GIGA,
    KIBI,
    MEBI,
    MEGA,
    MILLI,
    NANO,
    PICO,
    TERA,
    si_format,
)

__all__ = [
    "RunResult",
    "Workload",
    "build_run_result",
    "check_workload",
    "ensure_default_workloads",
    "example_config",
    "get_workload",
    "register_workload",
    "request_digest",
    "workload_names",
    "CampaignCellError",
    "DeviceFault",
    "ReproError",
    "SimulationTimeout",
    "StateError",
    "TransientFault",
    "ValidationError",
    "FixedPointFormat",
    "quantize",
    "dequantize_int",
    "mse",
    "psnr",
    "classification_accuracy",
    "dominates",
    "pareto_front",
    "pareto_indices",
    "hypervolume_2d",
    "make_rng",
    "Table",
    "GIGA",
    "KIBI",
    "MEBI",
    "MEGA",
    "MILLI",
    "NANO",
    "PICO",
    "TERA",
    "si_format",
]
