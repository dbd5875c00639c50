"""Shared numerics, metrics and reporting utilities.

Everything in here is domain-neutral: fixed-point arithmetic used by the
approximate-computing and IMC stacks, Pareto-front utilities used by the DSE
engine, image/accuracy metrics, deterministic RNG helpers and ASCII table
rendering used by the benchmark harness.  Names are imported from their
module on first use, so importing :mod:`repro.core.errors` or
:mod:`repro.core.api` does not import numpy.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.api": (
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
    ),
    "repro.core.errors": (
        "CampaignCellError",
        "DeviceFault",
        "ReproError",
        "SimulationTimeout",
        "StateError",
        "TransientFault",
        "ValidationError",
    ),
    "repro.core.fixedpoint": (
        "FixedPointFormat",
        "quantize",
        "dequantize_int",
    ),
    "repro.core.metrics": ("mse", "psnr", "classification_accuracy"),
    "repro.core.pareto": (
        "dominates",
        "pareto_front",
        "pareto_indices",
        "hypervolume_2d",
    ),
    "repro.core.rng": ("make_rng",),
    "repro.core.tables": ("Table",),
    "repro.core.units": (
        "GIGA",
        "KIBI",
        "MEBI",
        "MEGA",
        "MILLI",
        "NANO",
        "PICO",
        "TERA",
        "si_format",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
