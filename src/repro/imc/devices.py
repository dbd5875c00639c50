"""Emerging non-volatile memory device models (paper Sec. IV, device level).

Both PCM and RRAM devices "are characterized by non-ideal behavior in
terms of variability, drift, and noise issues which severely limit the
device performance."  This module captures the three non-idealities with
the functional forms standard in the device literature the paper cites
([7], [9], [10]):

- **programming variability**: a single SET/RESET pulse reaches the target
  conductance only up to a log-normal multiplicative error;
- **conductance drift** (dominant in PCM): ``G(t) = G(t0) * (t/t0)^-nu``
  with drift exponent ``nu``;
- **read noise**: zero-mean Gaussian current noise proportional to the
  programmed conductance (1/f + shot aggregate).

Conductances are expressed in siemens; typical RRAM/PCM windows are a few
microsiemens to ~100 uS.  Multi-level-cell (MLC) operation tunes the
device anywhere inside ``[g_min, g_max]`` -- the property that enables
analog matrix-vector multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.errors import ValidationError
from repro.core.rng import SeedLike, make_rng


@dataclass(frozen=True)
class DeviceParams:
    """Physical parameter set of an NVM technology."""

    name: str
    g_min: float
    g_max: float
    program_sigma: float
    drift_nu: float
    read_noise_fraction: float
    cell_area_f2: float = 25.0

    def __post_init__(self) -> None:
        if not 0 < self.g_min < self.g_max:
            raise ValueError("need 0 < g_min < g_max")
        if self.program_sigma < 0 or self.read_noise_fraction < 0:
            raise ValueError("noise parameters must be non-negative")
        if self.drift_nu < 0:
            raise ValueError("drift exponent must be non-negative")

    @property
    def dynamic_range(self) -> float:
        """On/off conductance ratio."""
        return self.g_max / self.g_min


#: Typical HfO2 RRAM: moderate variability, negligible drift.
RRAM_PARAMS = DeviceParams(
    name="RRAM",
    g_min=1e-6,
    g_max=100e-6,
    program_sigma=0.08,
    drift_nu=0.005,
    read_noise_fraction=0.01,
)

#: Typical GST PCM: similar window, pronounced resistance drift.
PCM_PARAMS = DeviceParams(
    name="PCM",
    g_min=0.5e-6,
    g_max=50e-6,
    program_sigma=0.10,
    drift_nu=0.05,
    read_noise_fraction=0.015,
)


class NVMDevice:
    """A vectorized array of NVM cells sharing one parameter set.

    The class models *state*, not layout: it holds the programmed
    conductances of ``shape`` cells and exposes program / drift / read
    operations.  Crossbar geometry lives in :mod:`repro.imc.crossbar`.
    """

    def __init__(
        self,
        params: DeviceParams,
        shape: tuple,
        seed: SeedLike = None,
    ) -> None:
        self.params = params
        self._rng = make_rng(seed)
        self._g0 = np.full(shape, params.g_min, dtype=np.float64)
        self._t_program = np.ones(shape, dtype=np.float64)
        self._stuck_mask: Optional[np.ndarray] = None
        self._stuck_values: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self._g0.shape

    @property
    def rng(self) -> np.random.Generator:
        """The device's generator (shared across devices when seeded with
        one :class:`~numpy.random.Generator`, e.g. a crossbar's G+/G-
        pair).  Exposed so batched kernels can draw the read noise of
        several reads in one call while consuming the *same* stream as
        repeated :meth:`read` calls."""
        return self._rng

    @property
    def conductances(self) -> np.ndarray:
        """Programmed (time-zero) conductances; copy, callers cannot
        corrupt device state."""
        return self._g0.copy()

    def clip_targets(self, targets: np.ndarray) -> np.ndarray:
        """Clamp *targets* into the programmable window."""
        return np.clip(targets, self.params.g_min, self.params.g_max)

    @property
    def stuck_cell_count(self) -> int:
        """Number of cells pinned by injected stuck-at faults."""
        if self._stuck_mask is None:
            return 0
        return int(self._stuck_mask.sum())

    def apply_stuck_faults(
        self, mask: np.ndarray, values: np.ndarray
    ) -> None:
        """Pin the cells selected by *mask* at *values* (stuck-at faults).

        Stuck cells hold their conductance through every subsequent
        program/correction pulse -- the defining property of a stuck-at
        defect and what makes it survive program-and-verify.  Injected
        by :class:`repro.resilience.FaultInjector`; calling again merges
        with any previously injected faults.
        """
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), self.shape)
        values = self.clip_targets(
            np.broadcast_to(np.asarray(values, dtype=np.float64), self.shape)
        )
        if self._stuck_mask is None:
            self._stuck_mask = mask.copy()
            self._stuck_values = np.where(mask, values, 0.0)
        else:
            fresh = mask & ~self._stuck_mask
            self._stuck_mask = self._stuck_mask | mask
            self._stuck_values = np.where(
                fresh, values, self._stuck_values
            )
        self._enforce_stuck()

    def _enforce_stuck(self) -> None:
        if self._stuck_mask is not None:
            self._g0 = np.where(self._stuck_mask, self._stuck_values, self._g0)

    def program_pulse(self, targets: np.ndarray) -> np.ndarray:
        """Apply one open-loop programming pulse toward *targets*.

        Each cell lands at ``target * lognormal(0, sigma)``, clipped to the
        window; returns the achieved conductances.  This is the primitive
        the program-and-verify loop of [10] iterates.
        """
        targets = np.broadcast_to(
            np.asarray(targets, dtype=np.float64), self.shape
        )
        if np.any(targets < 0):
            raise ValueError("conductance targets must be non-negative")
        noise = self._rng.lognormal(
            mean=0.0, sigma=self.params.program_sigma, size=self.shape
        )
        self._g0 = self.clip_targets(targets * noise)
        self._t_program = np.ones(self.shape)
        self._enforce_stuck()
        return self._g0.copy()

    def program_correction(
        self, error_fraction: np.ndarray, pulse_sigma: Optional[float] = None
    ) -> np.ndarray:
        """Apply a corrective pulse scaling each conductance by
        ``1 - error_fraction`` (plus fresh pulse noise).

        Used by program-and-verify: after reading an achieved conductance
        ``g`` against target ``g*``, the next pulse corrects by the
        measured relative error.  *pulse_sigma* overrides the pulse noise
        -- verify algorithms shrink the pulse amplitude (and with it the
        stochastic spread) as they converge.
        """
        error_fraction = np.broadcast_to(
            np.asarray(error_fraction, dtype=np.float64), self.shape
        )
        if pulse_sigma is None:
            pulse_sigma = self.params.program_sigma / 2.0
        if pulse_sigma < 0:
            raise ValueError("pulse_sigma must be non-negative")
        noise = self._rng.lognormal(
            mean=0.0, sigma=pulse_sigma, size=self.shape
        )
        self._g0 = self.clip_targets(self._g0 * (1.0 - error_fraction) * noise)
        self._enforce_stuck()
        return self._g0.copy()

    def drifted(self, t_seconds: float) -> np.ndarray:
        """Conductances after *t_seconds* of drift (no state change).

        Power-law drift relative to the 1 s programming reference:
        ``G(t) = G0 * t^-nu`` for ``t >= 1``.
        """
        if t_seconds < 1.0:
            raise ValidationError("drift model is defined for t >= 1 s")
        return self._g0 * t_seconds ** (-self.params.drift_nu)

    def read(self, t_seconds: float = 1.0) -> np.ndarray:
        """Noisy read of the (drifted) conductances."""
        g = self.drifted(t_seconds)
        noise = self._rng.normal(
            0.0, self.params.read_noise_fraction, size=self.shape
        )
        return np.clip(g * (1.0 + noise), 0.0, None)

def relative_programming_error(
    achieved: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per-cell relative error ``(achieved - target) / target``."""
    targets = np.asarray(targets, dtype=np.float64)
    if np.any(targets <= 0):
        raise ValueError("targets must be positive for relative error")
    return (np.asarray(achieved, dtype=np.float64) - targets) / targets
