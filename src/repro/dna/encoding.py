"""Bits <-> bases codec with strand addressing (paper Fig. 6a).

Digital information "composed of '1's and '0's" is encoded into the four
nucleotide bases; the canonical mapping is two bits per base (A=00, C=01,
G=10, T=11, the encoding shown in Fig. 6a).  Payloads larger than one
strand are split into fixed-size oligos, each prefixed with an index field
so the unordered pool can be reassembled, plus an outer Reed-Solomon code
(:mod:`repro.dna.ecc`) applied by the full pipeline.  Each chunk is XORed
with a pseudo-random mask keyed by its index before synthesis, so a
low-entropy payload (say, all zeros) still yields strands that are far
apart in edit distance, as read clustering assumes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Fig. 6a digital encoding of the bases.
BASES = "ACGT"
_BASE_TO_BITS: Dict[str, int] = {base: i for i, base in enumerate(BASES)}


def bits_to_bases(data: bytes) -> str:
    """Encode *data* at two bits per base, most-significant bits first."""
    out = []
    for byte in data:
        for shift in (6, 4, 2, 0):
            out.append(BASES[(byte >> shift) & 0b11])
    return "".join(out)


def bases_to_bits(strand: str) -> bytes:
    """Decode a base string back to bytes.

    The strand length must be a multiple of 4 (one byte per 4 bases);
    unknown characters are rejected.
    """
    if len(strand) % 4:
        raise ValueError("strand length must be a multiple of 4 bases")
    data = bytearray()
    for k in range(0, len(strand), 4):
        byte = 0
        for ch in strand[k : k + 4]:
            if ch not in _BASE_TO_BITS:
                raise ValueError(f"invalid base {ch!r}")
            byte = (byte << 2) | _BASE_TO_BITS[ch]
        data.append(byte)
    return bytes(data)


@dataclass(frozen=True)
class OligoLayout:
    """Physical layout of one oligo: index header + payload bytes."""

    payload_bytes: int = 20
    index_bytes: int = 2

    def __post_init__(self) -> None:
        if self.payload_bytes < 1 or self.index_bytes < 1:
            raise ValueError("payload and index sizes must be >= 1")

    @property
    def strand_bases(self) -> int:
        """Total strand length in bases."""
        return 4 * (self.index_bytes + self.payload_bytes)

    @property
    def max_oligos(self) -> int:
        return 256**self.index_bytes


def _whiten(index: int, chunk: bytes) -> bytes:
    """XOR *chunk* with the mask for strand *index* (its own inverse)."""
    mask = hashlib.shake_128(index.to_bytes(8, "big")).digest(len(chunk))
    return bytes(a ^ b for a, b in zip(chunk, mask))


def encode_payload(
    data: bytes, layout: OligoLayout = OligoLayout()
) -> List[str]:
    """Split *data* into indexed oligo strands.

    The final chunk is zero-padded; the pipeline records the original
    length separately (in practice inside the ECC frame).
    """
    if not data:
        raise ValueError("payload must be non-empty")
    chunks = [
        data[i : i + layout.payload_bytes]
        for i in range(0, len(data), layout.payload_bytes)
    ]
    if len(chunks) > layout.max_oligos:
        raise ValueError(
            f"payload needs {len(chunks)} oligos, index field allows "
            f"{layout.max_oligos}"
        )
    strands = []
    for index, chunk in enumerate(chunks):
        padded = chunk.ljust(layout.payload_bytes, b"\x00")
        header = index.to_bytes(layout.index_bytes, "big")
        strands.append(bits_to_bases(header + _whiten(index, padded)))
    return strands


def parse_strand(
    strand: str, layout: OligoLayout = OligoLayout()
) -> Optional[Tuple[int, bytes]]:
    """Parse one strand into ``(index, payload)``; ``None`` if the strand
    has the wrong length or invalid characters (damaged beyond use)."""
    if len(strand) != layout.strand_bases:
        return None
    try:
        raw = bases_to_bits(strand)
    except ValueError:
        return None
    index = int.from_bytes(raw[: layout.index_bytes], "big")
    return index, _whiten(index, raw[layout.index_bytes :])


def decode_strands(
    strands: List[str],
    payload_length: int,
    layout: OligoLayout = OligoLayout(),
) -> Tuple[bytes, int]:
    """Reassemble a payload from recovered *strands*.

    Returns ``(payload, missing_chunks)``.  Conflicting duplicates are
    resolved first-come; missing chunks are zero-filled (the outer ECC
    layer is responsible for repairing them).
    """
    if payload_length < 1:
        raise ValueError("payload_length must be >= 1")
    n_chunks = -(-payload_length // layout.payload_bytes)
    recovered: Dict[int, bytes] = {}
    for strand in strands:
        parsed = parse_strand(strand, layout)
        if parsed is None:
            continue
        index, payload = parsed
        if index < n_chunks and index not in recovered:
            recovered[index] = payload
    missing = n_chunks - len(recovered)
    data = b"".join(
        recovered.get(i, b"\x00" * layout.payload_bytes)
        for i in range(n_chunks)
    )
    return data[:payload_length], missing


def gc_content(strand: str) -> float:
    """Fraction of G/C bases -- a synthesis-quality constraint tracked by
    real encoders (reported, not enforced, by this pipeline)."""
    if not strand:
        raise ValueError("empty strand")
    return sum(1 for ch in strand if ch in "GC") / len(strand)


def max_homopolymer_run(strand: str) -> int:
    """Longest run of one repeated base (synthesis constraint metric)."""
    if not strand:
        raise ValueError("empty strand")
    best, run = 1, 1
    for prev, cur in zip(strand, strand[1:]):
        run = run + 1 if cur == prev else 1
        best = max(best, run)
    return best
