"""HTCONV: the hybrid foveated transposed convolution of Fig. 3 / Fig. 4.

The human visual system has high acuity only inside the *fovea*; the paper
exploits this by computing the x2 transposed convolution exactly inside a
configurable foveal region and replacing the three odd-indexed outputs of
every peripheral 2x2 block with cheap averages of the exactly-computed
even-even neighbours (Fig. 3, lines 16-21).

The implementation mirrors the pseudo-code's dataflow: for every input
pixel ``(i, j)`` the four output pixels ``O(2i+a, 2j+b)`` are produced;
foveal pixels charge ``4*t*t*C`` MACs, peripheral pixels charge ``t*t*C``
MACs plus five interpolation adds (two 2-term averages and one 4-term
average; the divisions are power-of-two shifts and free in hardware).

Peripheral interpolation references the even-even outputs of the *next*
block (``O(2i+2, 2j)`` etc.); at the bottom/right image border those do
not exist and the nearest available even-even output is used (the hardware
line buffer of Fig. 4 replicates its last entry the same way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.axc.layers import _check_feature_map, zero_upsample_x2
from repro.axc.macs import MacCounter
from repro.obs.trace import profiled


@dataclass(frozen=True)
class FovealRegion:
    """Circular foveal region in input-pixel coordinates.

    ``center`` is ``(row, col)`` and ``radius`` is in input pixels; the
    region is the disk ``(i - row)^2 + (j - col)^2 <= radius^2``.
    """

    center: Tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be non-negative")

    def mask(self, height: int, width: int) -> np.ndarray:
        """Boolean ``(height, width)`` mask of foveal input pixels."""
        if height <= 0 or width <= 0:
            raise ValueError("mask dimensions must be positive")
        rows = np.arange(height)[:, None] - self.center[0]
        cols = np.arange(width)[None, :] - self.center[1]
        return rows**2 + cols**2 <= self.radius**2

    def coverage(self, height: int, width: int) -> float:
        """Fraction of input pixels inside the fovea."""
        return float(self.mask(height, width).mean())

    @classmethod
    def centered(
        cls, height: int, width: int, fraction: float
    ) -> "FovealRegion":
        """Centered fovea covering approximately *fraction* of the image.

        The disk is clipped by the image rectangle, so the radius is found
        by bisection on the *actual* pixel coverage rather than the
        unclipped-area formula.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        center = ((height - 1) / 2.0, (width - 1) / 2.0)
        if fraction == 0.0:
            return cls(center=center, radius=0.0)
        lo, hi = 0.0, float(np.hypot(height, width))
        for _ in range(40):
            mid = (lo + hi) / 2.0
            if cls(center=center, radius=mid).coverage(height, width) < fraction:
                lo = mid
            else:
                hi = mid
        return cls(center=center, radius=hi)

    @classmethod
    def everything(cls) -> "FovealRegion":
        """Degenerate fovea covering any image (HTCONV == exact TCONV)."""
        return cls(center=(0.0, 0.0), radius=float("inf"))

    @classmethod
    def nothing(cls) -> "FovealRegion":
        """Empty fovea (fully approximate HTCONV)."""
        return cls(center=(-1.0, -1.0), radius=0.0)


def _even_even_outputs(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Exact outputs ``O(2i, 2j)`` for every input pixel (H x W array).

    These are computed for *all* pixels -- Fig. 3 computes line 18 in the
    peripheral branch too -- so they can be vectorized in one pass.
    """
    c, h, w = x.shape
    t = kernel.shape[-1]
    up = zero_upsample_x2(x, pad_tail=t - 1)
    windows = sliding_window_view(up, (t, t), axis=(1, 2))
    even = windows[:, : 2 * h : 2, : 2 * w : 2]
    return np.einsum("cyxuv,cuv->yx", even, kernel)


def _odd_outputs_exact(
    x: np.ndarray, kernel: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact outputs ``O(2i+1, 2j)``, ``O(2i, 2j+1)``, ``O(2i+1, 2j+1)``
    for every input pixel (three H x W arrays), used inside the fovea."""
    c, h, w = x.shape
    t = kernel.shape[-1]
    up = zero_upsample_x2(x, pad_tail=t)
    windows = sliding_window_view(up, (t, t), axis=(1, 2))
    odd_even = windows[:, 1 : 2 * h : 2, : 2 * w : 2]
    even_odd = windows[:, : 2 * h : 2, 1 : 2 * w : 2]
    odd_odd = windows[:, 1 : 2 * h : 2, 1 : 2 * w : 2]
    contract = lambda win: np.einsum("cyxuv,cuv->yx", win, kernel)  # noqa: E731
    return contract(odd_even), contract(even_odd), contract(odd_odd)


def _htconv_x2_scalar(
    x: np.ndarray,
    kernel: np.ndarray,
    foveal: np.ndarray,
) -> np.ndarray:
    """Literal per-pixel Fig. 3 pseudo-code: the scalar reference oracle.

    Two passes, exactly mirroring the dataflow of the vectorized kernel
    (even-even outputs for *every* pixel first, then the three odd
    outputs per pixel): plain Python loops, one multiply-accumulate at a
    time in ``(c, u, v)`` order.
    """
    c, h, w = x.shape
    t = kernel.shape[-1]
    up = zero_upsample_x2(x, pad_tail=t)

    def window_sum(y: int, xx: int) -> float:
        acc = 0.0
        for ch in range(c):
            for u in range(t):
                for v in range(t):
                    acc += kernel[ch, u, v] * up[ch, y + u, xx + v]
        return acc

    even_even = np.zeros((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            even_even[i, j] = window_sum(2 * i, 2 * j)

    out = np.zeros((2 * h, 2 * w), dtype=np.float64)
    out[0::2, 0::2] = even_even
    for i in range(h):
        for j in range(w):
            if foveal[i, j]:
                out[2 * i + 1, 2 * j] = window_sum(2 * i + 1, 2 * j)
                out[2 * i, 2 * j + 1] = window_sum(2 * i, 2 * j + 1)
                out[2 * i + 1, 2 * j + 1] = window_sum(2 * i + 1, 2 * j + 1)
            else:
                south = even_even[min(i + 1, h - 1), j]
                east = even_even[i, min(j + 1, w - 1)]
                south_east = even_even[min(i + 1, h - 1), min(j + 1, w - 1)]
                ee = even_even[i, j]
                out[2 * i + 1, 2 * j] = (ee + south) / 2.0
                out[2 * i, 2 * j + 1] = (ee + east) / 2.0
                out[2 * i + 1, 2 * j + 1] = (
                    ee + east + south + south_east
                ) / 4.0
    return out


@profiled("axc.htconv_x2")
def htconv_x2(
    x: np.ndarray,
    kernel: np.ndarray,
    fovea: FovealRegion,
    counter: Optional[MacCounter] = None,
    layer_name: str = "htconv",
    impl: str = "numpy",
) -> np.ndarray:
    """Hybrid x2 transposed convolution (Fig. 3 pseudo-code).

    *x* is ``(C, H, W)``, *kernel* is ``(C, t, t)``; returns ``(2H, 2W)``.
    Inside *fovea* the output matches
    :func:`repro.axc.layers.transposed_conv2d_x2` exactly; outside, odd
    outputs are neighbour averages of the even-even exact outputs.

    ``impl="scalar"`` runs the literal per-pixel pseudo-code (the
    reference oracle; MAC charges are identical); ``impl="numpy"``
    (default) is the batched ``sliding_window_view``/``einsum`` kernel.
    The two agree to reduction-reordering rounding (policy pinned in the
    equivalence tests).
    """
    x = _check_feature_map(x)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 3 or kernel.shape[1] != kernel.shape[2]:
        raise ValueError(f"kernel must be (C, t, t), got {kernel.shape}")
    if kernel.shape[0] != x.shape[0]:
        raise ValueError("channel mismatch between input and kernel")
    if impl not in ("scalar", "numpy"):
        raise ValueError(f"impl must be 'scalar' or 'numpy', got {impl!r}")
    c, h, w = x.shape
    t = kernel.shape[-1]
    foveal = fovea.mask(h, w)

    if impl == "scalar":
        out = _htconv_x2_scalar(x, kernel, foveal)
        if counter is not None:
            _charge_htconv(counter, layer_name, foveal, h, w, t, c)
        return out

    even_even = _even_even_outputs(x, kernel)

    out = np.zeros((2 * h, 2 * w), dtype=np.float64)
    out[0::2, 0::2] = even_even

    # Foveal region: all four outputs exact (Fig. 3 lines 8-15).
    odd_even, even_odd, odd_odd = _odd_outputs_exact(x, kernel)
    out[1::2, 0::2][foveal] = odd_even[foveal]
    out[0::2, 1::2][foveal] = even_odd[foveal]
    out[1::2, 1::2][foveal] = odd_odd[foveal]

    # Peripheral region: interpolate from the even-even grid (lines 19-21),
    # clamping at the bottom/right border where O(2i+2, .) does not exist.
    south = np.vstack([even_even[1:], even_even[-1:]])
    east = np.hstack([even_even[:, 1:], even_even[:, -1:]])
    south_east = np.vstack([east[1:], east[-1:]])
    periph = ~foveal
    out[1::2, 0::2][periph] = (even_even[periph] + south[periph]) / 2.0
    out[0::2, 1::2][periph] = (even_even[periph] + east[periph]) / 2.0
    out[1::2, 1::2][periph] = (
        even_even[periph] + east[periph] + south[periph] + south_east[periph]
    ) / 4.0

    if counter is not None:
        _charge_htconv(counter, layer_name, foveal, h, w, t, c)
    return out


def _charge_htconv(
    counter: MacCounter,
    layer_name: str,
    foveal: np.ndarray,
    h: int,
    w: int,
    t: int,
    c: int,
) -> None:
    """MAC/interp accounting shared by both kernel implementations."""
    n_foveal = int(foveal.sum())
    n_periph = h * w - n_foveal
    per_pixel = t * t * c
    counter.charge_macs(
        layer_name, n_foveal * 4 * per_pixel + n_periph * per_pixel
    )
    # Two 2-term averages (1 add each) + one 4-term average (3 adds).
    counter.charge_interp(layer_name, n_periph * 5)


def htconv_mac_model(
    height: int, width: int, kernel_size: int, channels: int, coverage: float
) -> Tuple[int, int]:
    """Analytic (HTCONV MACs, exact-TCONV MACs) for a given foveal
    *coverage* fraction -- the closed-form behind the ">80% MAC saving"
    claim: saving = 0.75 * (1 - coverage) relative to the dense TCONV of
    the same geometry."""
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must be in [0, 1]")
    per_pixel = kernel_size * kernel_size * channels
    n_pixels = height * width
    exact = 4 * n_pixels * per_pixel
    n_foveal = int(round(coverage * n_pixels))
    hybrid = n_foveal * 4 * per_pixel + (n_pixels - n_foveal) * per_pixel
    return hybrid, exact
