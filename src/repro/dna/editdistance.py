"""Levenshtein (edit) distance kernels (paper Sec. VI, refs [27]-[35]).

Three implementations with identical semantics and very different cost
profiles, mirroring the algorithm landscape the paper surveys:

- :func:`levenshtein` -- the full O(n*m) dynamic program, the reference;
- :func:`levenshtein_banded` -- banded DP answering "is the distance at
  most k?" in O(k*min(n,m)), the pre-filter used by clustering;
- :func:`levenshtein_myers` -- Myers' bit-parallel algorithm, one DP
  column per machine word, the algorithm the project's FPGA accelerator
  [35] parallelizes in hardware.

All kernels optionally report *cell updates*, the CUPS currency in which
the paper quotes accelerator throughput (16.8 TCUPS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.jit import resolve_impl
from repro.obs.trace import profiled


@dataclass
class CellUpdateCounter:
    """Accumulates DP cell updates (the 'CU' in CUPS)."""

    cells: int = 0

    def charge(self, count: int) -> None:
        if count < 0:
            raise ValueError("cell count must be non-negative")
        self.cells += count


def levenshtein(
    a: str, b: str, counter: Optional[CellUpdateCounter] = None
) -> int:
    """Exact edit distance via the full dynamic program (two-row,
    vectorized over the inner loop)."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        if counter is not None:
            counter.charge(0)
        return len(a)
    a_codes = np.frombuffer(a.encode("utf-8"), dtype=np.uint8)
    b_codes = np.frombuffer(b.encode("utf-8"), dtype=np.uint8)
    cols = np.arange(1, len(b_codes) + 1, dtype=np.int64)
    previous = np.arange(len(b_codes) + 1, dtype=np.int64)
    current = np.empty_like(previous)
    for i, ca in enumerate(a_codes, start=1):
        current[0] = i
        # Substitutions and deletions vectorize directly.
        np.minimum(
            previous[:-1] + (b_codes != ca), previous[1:] + 1, out=current[1:]
        )
        # Insertions chain left-to-right: final[j] = min_k (tmp[k] + j - k)
        # = j + prefix-min(tmp[k] - k), computed in C by
        # minimum.accumulate.  (The k = 0 boundary term i + j is always
        # dominated because tmp[1] <= i + 1.)
        shifted = current[1:] - cols
        np.minimum.accumulate(shifted, out=shifted)
        np.minimum(current[1:], shifted + cols, out=current[1:])
        previous, current = current, previous
    if counter is not None:
        counter.charge(len(a_codes) * len(b_codes))
    return int(previous[-1])


def levenshtein_reference(a: str, b: str) -> int:
    """Plain-Python reference DP (used to validate the optimized
    kernels in the test suite)."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


@profiled("dna.levenshtein_banded")
def levenshtein_banded(
    a: str,
    b: str,
    band: int,
    counter: Optional[CellUpdateCounter] = None,
    impl: str = "numpy",
) -> Optional[int]:
    """Edit distance if it is at most *band*, else ``None``.

    Classic Ukkonen band: only DP cells with ``|i - j| <= band`` are
    evaluated.  Used as the cheap pre-filter in read clustering -- two
    reads of the same strand differ by a handful of edits, unrelated
    reads by hundreds.

    ``impl`` selects the kernel: ``"scalar"`` is the dict-based
    reference DP; ``"numpy"`` (default) evaluates each band row as one
    vector operation (substitution/deletion elementwise, the insertion
    chain by prefix-minimum); ``"jit"`` runs the numba-compiled flat
    band loop of :mod:`repro.dna.jitkernels` -- the fastest tier at
    clustering-scale bands -- and degrades gracefully to ``"numpy"``
    when numba is not installed.  All tiers return the identical
    distance, early exit row, and cell-update charge.  Non-ASCII inputs
    fall back to the scalar path (the fast kernels compare byte codes).
    """
    if band < 0:
        raise ValueError("band must be non-negative")
    if impl not in ("scalar", "numpy", "jit"):
        raise ValueError(
            f"impl must be 'scalar', 'numpy' or 'jit', got {impl!r}"
        )
    if abs(len(a) - len(b)) > band:
        return None
    if len(a) < len(b):
        a, b = b, a
    impl = resolve_impl(impl)  # "jit" -> "numpy" on numba-free installs
    if impl != "scalar":
        a_codes = np.frombuffer(a.encode("utf-8"), dtype=np.uint8)
        b_codes = np.frombuffer(b.encode("utf-8"), dtype=np.uint8)
        if len(a_codes) == len(a) and len(b_codes) == len(b):
            if impl == "jit":
                return _banded_jit(a_codes, b_codes, band, counter)
            return _banded_numpy(a_codes, b_codes, band, counter)
    return _banded_scalar(a, b, band, counter)


def _banded_jit(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    band: int,
    counter: Optional[CellUpdateCounter],
) -> Optional[int]:
    """Adapter over the compiled band kernel (``None`` verdicts travel
    as ``-1`` through the nopython boundary)."""
    from repro.dna.jitkernels import banded_kernel

    distance, cells = banded_kernel(a_codes, b_codes, band)
    if counter is not None:
        counter.charge(int(cells))
    return None if distance < 0 else int(distance)


def _banded_scalar(
    a: str, b: str, band: int, counter: Optional[CellUpdateCounter]
) -> Optional[int]:
    """Reference banded DP over dicts (callers pre-sort ``len(a) >=
    len(b)`` and pre-check the length gap)."""
    n, m = len(a), len(b)
    inf = band + 1
    previous = {j: j for j in range(min(band, m) + 1)}
    cells = len(previous)
    for i in range(1, n + 1):
        lo = max(0, i - band)
        hi = min(m, i + band)
        current = {}
        for j in range(lo, hi + 1):
            if j == 0:
                current[j] = i
                continue
            best = previous.get(j - 1, inf) + (a[i - 1] != b[j - 1])
            best = min(best, previous.get(j, inf) + 1)
            best = min(best, current.get(j - 1, inf) + 1)
            current[j] = best
        cells += len(current)
        if min(current.values()) > band:
            if counter is not None:
                counter.charge(cells)
            return None
        previous = current
    if counter is not None:
        counter.charge(cells)
    distance = previous.get(m, inf)
    return distance if distance <= band else None


def _banded_numpy(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    band: int,
    counter: Optional[CellUpdateCounter],
) -> Optional[int]:
    """Vectorized band rows; bit-identical to :func:`_banded_scalar`.

    Row *i* evaluates columns ``[lo, hi]``.  The substitution/deletion
    terms vectorize directly against the previous row (missing cells are
    ``inf = band + 1``, mirroring the dict ``.get`` default); the
    left-to-right insertion chain ``cur[j] = min(tmp[j], cur[j-1] + 1)``
    is the prefix-minimum ``cur[j] = j + min_{k<=j}(tmp[k] - k)``,
    computed in C by ``np.minimum.accumulate``.  Integer arithmetic
    throughout, so equality with the scalar path is exact.
    """
    n, m = len(a_codes), len(b_codes)
    inf = band + 1
    p_lo = 0
    previous = np.arange(min(band, m) + 1, dtype=np.int64)
    cells = previous.size
    for i in range(1, n + 1):
        lo = max(0, i - band)
        hi = min(m, i + band)
        width = hi - lo + 1
        # Substitution + deletion terms for columns max(lo, 1) .. hi.
        j0 = max(lo, 1)
        sub = (b_codes[j0 - 1 : hi] != a_codes[i - 1]).astype(np.int64)
        diag = _band_window(previous, p_lo, j0 - 1, hi - 1, inf) + sub
        up = _band_window(previous, p_lo, j0, hi, inf) + 1
        tmp = np.empty(width, dtype=np.int64)
        tmp[j0 - lo :] = np.minimum(diag, up)
        if lo == 0:
            tmp[0] = i  # boundary cell D[i, 0], fixed -- seeds the chain
        # Insertion chain as prefix-min of tmp[k] - k.
        offsets = np.arange(width, dtype=np.int64)
        chain = np.minimum.accumulate(tmp - offsets) + offsets
        current = np.minimum(tmp, chain)
        if lo == 0:
            current[0] = i
        cells += width
        if current.min() > band:
            if counter is not None:
                counter.charge(int(cells))
            return None
        previous, p_lo = current, lo
    if counter is not None:
        counter.charge(int(cells))
    if p_lo <= m <= p_lo + previous.size - 1:
        distance = int(previous[m - p_lo])
    else:
        distance = inf
    return distance if distance <= band else None


def _band_window(
    row: np.ndarray, row_lo: int, lo: int, hi: int, inf: int
) -> np.ndarray:
    """Columns ``lo..hi`` of a stored band *row* starting at *row_lo*,
    padding out-of-band positions with *inf*."""
    out = np.full(hi - lo + 1, inf, dtype=np.int64)
    src_lo = max(lo, row_lo)
    src_hi = min(hi, row_lo + row.size - 1)
    if src_lo <= src_hi:
        out[src_lo - lo : src_hi - lo + 1] = row[
            src_lo - row_lo : src_hi - row_lo + 1
        ]
    return out


def levenshtein_myers(
    a: str, b: str, counter: Optional[CellUpdateCounter] = None
) -> int:
    """Myers' bit-parallel edit distance.

    Processes one DP column per text character with O(1) word operations
    (Python integers act as arbitrary-width words, so any pattern length
    works in a single block).  This is the bit-vector formulation the
    project's FPGA accelerator implements with hardware parallelism.
    """
    pattern, text = a, b
    m = len(pattern)
    if m == 0:
        if counter is not None:
            counter.charge(0)
        return len(text)
    mask = (1 << m) - 1
    peq = {}
    for i, ch in enumerate(pattern):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    pv = mask
    mv = 0
    score = m
    high_bit = 1 << (m - 1)
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high_bit:
            score += 1
        elif mh & high_bit:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = (mh | (~(xv | ph) & mask)) & mask
        mv = ph & xv
    if counter is not None:
        counter.charge(m * len(text))
    return score


def pairwise_distance_matrix(
    sequences: list,
    kernel=levenshtein_myers,
    counter: Optional[CellUpdateCounter] = None,
) -> np.ndarray:
    """Symmetric all-pairs edit-distance matrix (the accelerator's
    batch workload)."""
    n = len(sequences)
    matrix = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d = kernel(sequences[i], sequences[j], counter)
            matrix[i, j] = matrix[j, i] = d
    return matrix
