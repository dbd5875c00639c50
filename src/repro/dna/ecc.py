"""Reed-Solomon outer code over GF(256) (paper Sec. VI, ref [25]).

The robustness of DNA storage rests on "error-correcting codes" wrapped
around the payload (Grass et al. [25] use Reed-Solomon).  This is a
complete from-scratch RS(n, k) codec: GF(2^8) arithmetic with the 0x11D
primitive polynomial, systematic encoding by polynomial division, and
Peterson-Gorenstein-Zierler decoding (syndrome matrix solve for the error
locator, exhaustive Chien-style root search, Vandermonde solve for the
magnitudes).  PGZ is O(t^3) per codeword, entirely adequate for the small
parity budgets DNA pipelines use, and straightforwardly verifiable -- the
decoder re-checks the syndromes of its own correction before accepting it.

The codec corrects up to ``t = (n - k) // 2`` byte errors per codeword --
including the zero-filled chunks left by dropped strands.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.errors import ValidationError
from repro.obs.trace import profiled

_PRIMITIVE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1
_FIELD_SIZE = 256

# Exponential/log tables for GF(256).
_EXP = [0] * (2 * _FIELD_SIZE)
_LOG = [0] * _FIELD_SIZE


def _build_tables() -> None:
    value = 1
    for power in range(_FIELD_SIZE - 1):
        _EXP[power] = value
        _LOG[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLY
    for power in range(_FIELD_SIZE - 1, 2 * _FIELD_SIZE):
        _EXP[power] = _EXP[power - (_FIELD_SIZE - 1)]


_build_tables()


def _build_mul_table() -> np.ndarray:
    """Full 256 x 256 GF(256) product table (64 KiB, built once).

    ``_MUL_TABLE[a, b] == gf_mul(a, b)``: one gather replaces the
    log/antilog lookups and the zero-operand branch, which is what lets
    the vectorized codec paths do a whole row of multiplies per step.
    """
    exp = np.asarray(_EXP, dtype=np.int64)
    log = np.asarray(_LOG, dtype=np.int64)
    table = exp[log[:, None] + log[None, :]]
    table[0, :] = 0
    table[:, 0] = 0
    return table.astype(np.uint8)


_MUL_TABLE = _build_mul_table()


def gf_mul(a: int, b: int) -> int:
    """Multiply in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_div(a: int, b: int) -> int:
    """Divide in GF(256); division by zero raises."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return _EXP[_LOG[a] - _LOG[b] + (_FIELD_SIZE - 1)]


def gf_pow(a: int, n: int) -> int:
    """a**n in GF(256) (with 0**0 == 1)."""
    if a == 0:
        return 0 if n else 1
    return _EXP[(_LOG[a] * n) % (_FIELD_SIZE - 1)]


def gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    return gf_div(1, a)


def gf_solve(matrix: List[List[int]], rhs: List[int]) -> Optional[List[int]]:
    """Solve ``matrix @ x = rhs`` over GF(256) by Gaussian elimination.

    Returns ``None`` when the matrix is singular.  Sizes are tiny (at
    most ``t x t``), so clarity beats asymptotics here.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix) or len(rhs) != size:
        raise ValueError("matrix must be square and aligned with rhs")
    aug = [list(row) + [val] for row, val in zip(matrix, rhs)]
    for col in range(size):
        pivot = next(
            (r for r in range(col, size) if aug[r][col] != 0), None
        )
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = gf_inverse(aug[col][col])
        aug[col] = [gf_mul(v, inv) for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [
                    v ^ gf_mul(factor, p) for v, p in zip(aug[r], aug[col])
                ]
    return [row[-1] for row in aug]


def _poly_mul(p: List[int], q: List[int]) -> List[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            out[i + j] ^= gf_mul(pi, qj)
    return out


def _poly_eval(poly: List[int], x: int) -> int:
    """Evaluate *poly* (highest-degree coefficient first) at *x*."""
    result = 0
    for coeff in poly:
        result = gf_mul(result, x) ^ coeff
    return result


def _poly_eval_many(poly: List[int], xs: np.ndarray) -> np.ndarray:
    """Evaluate *poly* at every point of *xs* (Horner, one table gather
    per coefficient instead of one multiply per point)."""
    result = np.zeros(xs.shape, dtype=np.uint8)
    for coeff in poly:
        result = _MUL_TABLE[result, xs] ^ coeff
    return result


class ReedSolomonCodec:
    """Systematic RS(n, k) codec over GF(256).

    *n* is the codeword length (<= 255), *k* the message length; the code
    corrects up to ``t = (n - k) // 2`` byte errors anywhere in the
    codeword.  Codeword convention: ``c(x) = m(x) x^(n-k) + parity(x)``
    with byte 0 the highest-degree coefficient.

    ``impl="scalar"`` runs the per-byte ``gf_mul`` loops (the reference);
    ``impl="numpy"`` (default) replaces the inner multiply loops with
    gathers into the precomputed product table -- encode folds a whole
    generator row per byte, the syndromes are one table gather plus an
    XOR reduction, and the Chien search evaluates the locator at all *n*
    points at once.  GF(256) arithmetic is exact either way, so both
    produce identical bytes.
    """

    def __init__(self, n: int, k: int, impl: str = "numpy") -> None:
        if not 1 <= k < n <= 255:
            raise ValidationError("require 1 <= k < n <= 255")
        if impl not in ("scalar", "numpy"):
            raise ValueError(
                f"impl must be 'scalar' or 'numpy', got {impl!r}"
            )
        self.n = n
        self.k = k
        self.n_parity = n - k
        self.impl = impl
        # Generator polynomial: product of (x - alpha^i), i = 0..n-k-1.
        gen = [1]
        for i in range(self.n_parity):
            gen = _poly_mul(gen, [1, gf_pow(2, i)])
        self._generator = gen
        # Lookup rows for the vectorized paths, built once per codec.
        # Tail of the (monic) generator: the row XORed into the
        # remainder per message byte during systematic encoding.
        self._gen_tail = np.asarray(gen[1:], dtype=np.uint8)
        # Syndrome powers: S_i = sum_j c_j * alpha^{i * (n - 1 - j)}
        # (byte 0 is the highest-degree coefficient).
        degrees = np.arange(n - 1, -1, -1, dtype=np.int64)
        rows = np.arange(self.n_parity, dtype=np.int64)[:, None]
        exp = np.asarray(_EXP, dtype=np.int64)
        self._syndrome_powers = exp[
            (rows * degrees[None, :]) % (_FIELD_SIZE - 1)
        ].astype(np.uint8)
        # Chien-search points: alpha^{-degree} for degree = 0..n-1.
        self._inv_alpha = np.asarray(
            [gf_inverse(gf_pow(2, d)) for d in range(n)], dtype=np.uint8
        )

    @property
    def t(self) -> int:
        """Maximum correctable byte errors per codeword."""
        return self.n_parity // 2

    @property
    def overhead(self) -> float:
        """Parity overhead fraction ``(n - k) / k``."""
        return self.n_parity / self.k

    @profiled("dna.rs_encode")
    def encode(self, message: bytes) -> bytes:
        """Systematic encoding: message followed by parity bytes."""
        if len(message) != self.k:
            raise ValueError(f"message must be {self.k} bytes")
        if self.impl == "numpy":
            remainder = np.zeros(self.n, dtype=np.uint8)
            remainder[: self.k] = np.frombuffer(message, dtype=np.uint8)
            width = self._gen_tail.size
            for i in range(self.k):
                coef = remainder[i]
                if coef:
                    # One table gather multiplies the whole generator
                    # tail by coef; XOR folds it into the remainder.
                    remainder[i + 1 : i + 1 + width] ^= _MUL_TABLE[
                        self._gen_tail, coef
                    ]
            return bytes(message) + remainder[self.k :].tobytes()
        remainder = list(message) + [0] * self.n_parity
        for i in range(self.k):
            coef = remainder[i]
            if coef == 0:
                continue
            for j in range(1, len(self._generator)):
                remainder[i + j] ^= gf_mul(self._generator[j], coef)
        return bytes(message) + bytes(remainder[self.k :])

    def _syndromes(self, codeword: bytes) -> List[int]:
        if self.impl == "numpy":
            cw = np.frombuffer(codeword, dtype=np.uint8)
            products = _MUL_TABLE[self._syndrome_powers, cw[None, :]]
            return np.bitwise_xor.reduce(products, axis=1).tolist()
        return [
            _poly_eval(list(codeword), gf_pow(2, i))
            for i in range(self.n_parity)
        ]

    @profiled("dna.rs_decode")
    def decode(self, codeword: bytes) -> Optional[bytes]:
        """Decode *codeword*; returns the corrected message or ``None``
        when the errors exceed the code's correction capability."""
        if len(codeword) != self.n:
            raise ValueError(f"codeword must be {self.n} bytes")
        syndromes = self._syndromes(codeword)
        if not any(syndromes):
            return bytes(codeword[: self.k])

        for n_errors in range(self.t, 0, -1):
            locator = self._pgz_locator(syndromes, n_errors)
            if locator is None:
                continue
            corrected = self._correct_with_locator(
                codeword, syndromes, locator
            )
            if corrected is not None:
                return corrected[: self.k]
        return None

    def _pgz_locator(
        self, syndromes: List[int], n_errors: int
    ) -> Optional[List[int]]:
        """Solve the PGZ syndrome system for *n_errors* locator
        coefficients ``[lambda_1 ... lambda_v]`` (sigma(x) = 1 +
        lambda_1 x + ... + lambda_v x^v)."""
        matrix = [
            [syndromes[i + j] for j in range(n_errors)]
            for i in range(n_errors)
        ]
        rhs = [syndromes[n_errors + i] for i in range(n_errors)]
        solution = gf_solve(matrix, rhs)
        if solution is None:
            return None
        # gf_solve returns [lambda_v, ..., lambda_1] ordering per the
        # matrix layout: column j multiplies lambda_{v-j}.
        return list(reversed(solution))

    def _correct_with_locator(
        self,
        codeword: bytes,
        syndromes: List[int],
        lambdas: List[int],
    ) -> Optional[bytes]:
        # sigma(x) highest-degree first: [lambda_v, ..., lambda_1, 1].
        sigma = list(reversed(lambdas)) + [1]
        # Root search: error at codeword position p (degree n-1-p)
        # corresponds to locator root x = alpha^{-(n-1-p)}.
        if self.impl == "numpy":
            values = _poly_eval_many(sigma, self._inv_alpha)
            positions = [
                self.n - 1 - int(d) for d in np.flatnonzero(values == 0)
            ]
        else:
            positions = []
            for degree in range(self.n):
                x = gf_inverse(gf_pow(2, degree))
                if _poly_eval(sigma, x) == 0:
                    positions.append(self.n - 1 - degree)
        if len(positions) != len(lambdas):
            return None
        # Magnitudes: solve the Vandermonde system
        # S_i = sum_k e_k * (alpha^{d_k})^i for i = 0..v-1.
        degrees = [self.n - 1 - p for p in positions]
        matrix = [
            [gf_pow(gf_pow(2, d), i) for d in degrees]
            for i in range(len(positions))
        ]
        rhs = syndromes[: len(positions)]
        magnitudes = gf_solve(matrix, rhs)
        if magnitudes is None:
            return None
        corrected = bytearray(codeword)
        for pos, magnitude in zip(positions, magnitudes):
            corrected[pos] ^= magnitude
        if any(self._syndromes(bytes(corrected))):
            return None
        return bytes(corrected)

    def encode_blocks(self, data: bytes) -> bytes:
        """Encode arbitrary-length *data* as consecutive RS blocks (the
        last block zero-padded)."""
        if not data:
            raise ValueError("data must be non-empty")
        out = bytearray()
        for i in range(0, len(data), self.k):
            block = data[i : i + self.k].ljust(self.k, b"\x00")
            out.extend(self.encode(block))
        return bytes(out)

    def decode_blocks(self, coded: bytes, data_length: int) -> Optional[bytes]:
        """Decode consecutive RS blocks back to *data_length* bytes;
        ``None`` if any block is uncorrectable."""
        if len(coded) % self.n:
            raise ValueError("coded length must be a multiple of n")
        out = bytearray()
        for i in range(0, len(coded), self.n):
            block = self.decode(coded[i : i + self.n])
            if block is None:
                return None
            out.extend(block)
        if data_length > len(out):
            raise ValueError("data_length exceeds decoded size")
        return bytes(out[:data_length])
