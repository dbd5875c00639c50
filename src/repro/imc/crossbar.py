"""Analog crossbar matrix-vector multiplication (paper Sec. IV).

"Multilevel cell operation ... enables efficient matrix-vector
multiplication when RRAM and PCM are arranged in crossbar array structures
by leveraging physical laws such as Ohm's law for voltage-conductance
multiplication and Kirchhoff's current law for summation of memory
currents in the same bitline."

The :class:`AnalogCrossbar` maps a signed weight matrix onto a
*differential pair* of NVM arrays (``W ~ G+ - G-``), drives quantized DAC
voltages on the wordlines, sums bitline currents (KCL), attenuates them
with a first-order IR-drop model, digitizes through the column ADCs and
rescales back to the weight domain.  Every analog non-ideality is
individually switchable so the benches can ablate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.errors import StateError
from repro.core.rng import SeedLike, make_rng
from repro.imc.adc import ADCConfig, ConversionLedger, DACConfig
from repro.imc.devices import DeviceParams, NVMDevice, RRAM_PARAMS
from repro.imc.program_verify import program_and_verify
from repro.obs.trace import profiled


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry and peripheral configuration of one crossbar macro."""

    rows: int = 128
    cols: int = 128
    device: DeviceParams = RRAM_PARAMS
    dac: DACConfig = field(default_factory=DACConfig)
    adc: ADCConfig = field(default_factory=ADCConfig)
    wire_resistance_ohm: float = 1.0
    use_program_verify: bool = True
    accumulation_depth: int = 1

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("crossbar dimensions must be >= 1")
        if self.wire_resistance_ohm < 0:
            raise ValueError("wire resistance must be non-negative")
        if self.accumulation_depth < 1:
            raise ValueError("accumulation depth must be >= 1")


class AnalogCrossbar:
    """One programmed crossbar computing ``y = W^T x`` in the analog domain.

    Weights are ``(rows, cols)``: inputs drive the rows (wordlines),
    outputs are read from the columns (bitlines), matching the physical
    picture of one MVM per read cycle.
    """

    def __init__(
        self, config: CrossbarConfig, seed: SeedLike = None
    ) -> None:
        self.config = config
        rng = make_rng(seed)
        shape = (config.rows, config.cols)
        self._g_pos = NVMDevice(config.device, shape, seed=rng)
        self._g_neg = NVMDevice(config.device, shape, seed=rng)
        self._weight_scale: Optional[float] = None
        self.ledger = ConversionLedger()

    @property
    def weight_scale(self) -> Optional[float]:
        """Weight value represented by the full conductance window."""
        return self._weight_scale

    def program_weights(self, weights: np.ndarray) -> None:
        """Map signed *weights* onto the differential conductance pair.

        Positive weights program ``G+`` proportionally (``G-`` at
        ``g_min``), negative weights the converse.  The mapping scale is
        ``max |W|`` -> ``g_max - g_min``.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.config.rows, self.config.cols):
            raise ValueError(
                f"weights must be {(self.config.rows, self.config.cols)}, "
                f"got {weights.shape}"
            )
        scale = float(np.max(np.abs(weights)))
        if scale == 0:
            scale = 1.0
        self._weight_scale = scale
        params = self.config.device
        window = params.g_max - params.g_min
        g_pos = params.g_min + window * np.clip(weights, 0, None) / scale
        g_neg = params.g_min + window * np.clip(-weights, 0, None) / scale
        if self.config.use_program_verify:
            program_and_verify(self._g_pos, g_pos)
            program_and_verify(self._g_neg, g_neg)
        else:
            self._g_pos.program_pulse(g_pos)
            self._g_neg.program_pulse(g_neg)

    def effective_weights(self, t_seconds: float = 1.0) -> np.ndarray:
        """Weight matrix implied by the current (drifted) conductances."""
        if self._weight_scale is None:
            raise StateError("crossbar has not been programmed")
        params = self.config.device
        window = params.g_max - params.g_min
        diff = self._g_pos.drifted(t_seconds) - self._g_neg.drifted(t_seconds)
        return diff / window * self._weight_scale

    def _ir_drop_factor(self) -> np.ndarray:
        """First-order IR-drop attenuation per cell.

        A cell at wordline *i*, bitline *j* sees ``(i + j)`` wire segments
        between itself and the drivers/sense amps; the delivered voltage is
        attenuated by ``1 / (1 + R_wire * G_cell_avg * (i + j))``.  This is
        the standard first-order approximation to the full resistive-mesh
        solve (adequate for trend studies; a mesh solver would refine, not
        reshape, the results).
        """
        params = self.config.device
        g_avg = (params.g_max + params.g_min) / 2.0
        i_idx = np.arange(self.config.rows)[:, None]
        j_idx = np.arange(self.config.cols)[None, :]
        return 1.0 / (
            1.0 + self.config.wire_resistance_ohm * g_avg * (i_idx + j_idx)
        )

    @profiled("imc.mvm")
    def mvm(
        self,
        x: np.ndarray,
        t_seconds: float = 1.0,
        ideal: bool = False,
    ) -> np.ndarray:
        """One analog matrix-vector product ``y = W^T x``.

        *x* is expected pre-normalized to [-1, 1].  With ``ideal=True``
        the physical chain is bypassed (exact float MVM on the programmed
        target weights' ideal mapping) -- the reference for error studies.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.config.rows,):
            raise ValueError(f"input must be ({self.config.rows},)")
        if self._weight_scale is None:
            raise StateError("crossbar has not been programmed")
        if ideal:
            return self.effective_weights(1.0).T @ x

        voltages = self.config.dac.quantize(x)
        self.ledger.charge_dac(self.config.dac, x.size)
        g_pos = self._read_noisy(self._g_pos, t_seconds)
        g_neg = self._read_noisy(self._g_neg, t_seconds)
        attenuation = self._ir_drop_factor()
        diff = (g_pos - g_neg) * attenuation
        currents = diff.T @ voltages  # Ohm + KCL per bitline
        digitized = self.config.adc.quantize(currents)
        self.ledger.charge_adc(self.config.adc, currents.size)
        return self._currents_to_weights_domain(digitized)

    @profiled("imc.mvm_batch")
    def mvm_batch(
        self,
        xs: np.ndarray,
        t_seconds: float = 1.0,
        impl: str = "numpy",
    ) -> np.ndarray:
        """Batch of independent analog MVMs, one conversion per vector.

        *xs* is ``(k, rows)``; returns ``(k, cols)``, each row exactly
        what :meth:`mvm` would return for the same input at the same RNG
        state.  ``impl="scalar"`` is the reference oracle (a Python loop
        over :meth:`mvm`); ``impl="numpy"`` draws the read noise of all
        ``k`` MVMs in one call and batches the DAC/ADC quantization, the
        IR-drop attenuation and the bitline contraction.  Both paths
        consume the shared G+/G- noise stream in the same order, so the
        results are bit-identical (pinned by the equivalence tests).
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        if xs.ndim != 2 or xs.shape[1] != self.config.rows:
            raise ValueError(f"inputs must be (k, {self.config.rows})")
        if self._weight_scale is None:
            raise StateError("crossbar has not been programmed")
        if impl == "scalar":
            return np.stack([self.mvm(x, t_seconds) for x in xs])
        if impl != "numpy":
            raise ValueError(f"impl must be 'scalar' or 'numpy', got {impl!r}")

        k = xs.shape[0]
        shape = (self.config.rows, self.config.cols)
        voltages = self.config.dac.quantize(xs)
        self.ledger.charge_dac(self.config.dac, xs.size)
        attenuation = self._ir_drop_factor()
        drift_pos = self._g_pos.drifted(t_seconds)
        drift_neg = self._g_neg.drifted(t_seconds)
        frac = self.config.device.read_noise_fraction
        rng = self._g_pos.rng
        currents = np.empty((k, self.config.cols))
        # Chunked so the per-chunk working set stays cache-resident (the
        # all-at-once formulation is memory-bound and *slower* than the
        # scalar loop); each chunk draws its interleaved (G+, G-) read
        # noise in one call whose C-order fill consumes the shared stream
        # exactly as sequential mvm() calls do -- bit-identical results.
        chunk = 16
        for lo in range(0, k, chunk):
            hi = min(lo + chunk, k)
            noise = rng.normal(0.0, frac, size=(hi - lo, 2) + shape)
            g_pos = np.clip(drift_pos * (1.0 + noise[:, 0]), 0.0, None)
            g_neg = np.clip(drift_neg * (1.0 + noise[:, 1]), 0.0, None)
            diff = (g_pos - g_neg) * attenuation
            # Batched gemm: (c, cols, rows) @ (c, rows, 1) -> (c, cols).
            currents[lo:hi] = np.matmul(
                diff.transpose(0, 2, 1), voltages[lo:hi, :, None]
            )[:, :, 0]
        digitized = self.config.adc.quantize(currents)
        self.ledger.charge_adc(self.config.adc, currents.size)
        return self._currents_to_weights_domain(digitized)

    def mvm_accumulated(
        self, xs: np.ndarray, t_seconds: float = 1.0
    ) -> np.ndarray:
        """Analog accumulation of several MVMs before one conversion [11].

        *xs* is ``(k, rows)`` with ``k <= accumulation_depth``; the k
        bitline current vectors are summed in the analog domain
        (sample-and-hold integration) and digitized once, cutting ADC
        energy by ``k`` at the cost of a wider current range per
        conversion.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        k = xs.shape[0]
        if k > self.config.accumulation_depth:
            raise ValueError(
                f"{k} accumulations exceed depth "
                f"{self.config.accumulation_depth}"
            )
        if xs.shape[1] != self.config.rows:
            raise ValueError(f"inputs must be (k, {self.config.rows})")
        if self._weight_scale is None:
            raise StateError("crossbar has not been programmed")
        attenuation = self._ir_drop_factor()
        total_current = np.zeros(self.config.cols)
        for x in xs:
            voltages = self.config.dac.quantize(x)
            self.ledger.charge_dac(self.config.dac, x.size)
            diff = (
                self._read_noisy(self._g_pos, t_seconds)
                - self._read_noisy(self._g_neg, t_seconds)
            ) * attenuation
            total_current += diff.T @ voltages
        digitized = self.config.adc.quantize(total_current)
        self.ledger.charge_adc(self.config.adc, total_current.size)
        return self._currents_to_weights_domain(digitized)

    def _read_noisy(self, device: NVMDevice, t_seconds: float) -> np.ndarray:
        return device.read(t_seconds)

    def _currents_to_weights_domain(self, currents: np.ndarray) -> np.ndarray:
        params = self.config.device
        window = params.g_max - params.g_min
        return currents / window / self.config.dac.v_max * self._weight_scale
