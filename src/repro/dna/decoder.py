"""End-to-end DNA storage pipeline (paper Fig. 6b).

:class:`DNAStorageSystem` wires the whole chain together:

  payload -> RS outer code -> oligo encoding -> channel (synthesis /
  PCR / sequencing noise) -> read clustering (edit distance) ->
  per-cluster consensus -> strand parsing -> RS correction -> payload

``store`` and ``retrieve`` are separate so benches can intercept the read
pool; :class:`RetrievalReport` carries the quality and *work* statistics
(cell updates for the accelerator model) of one retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.rng import SeedLike
from repro.dna.channel import ChannelParams, DNAChannel
from repro.dna.clustering import cluster_reads
from repro.dna.consensus import consensus_sequence
from repro.dna.ecc import ReedSolomonCodec
from repro.dna.editdistance import CellUpdateCounter
from repro.dna.encoding import OligoLayout, decode_strands, encode_payload


@dataclass(frozen=True)
class RetrievalReport:
    """Outcome and accounting of one retrieval."""

    payload: Optional[bytes]
    success: bool
    num_reads: int
    num_clusters: int
    missing_chunks: int
    cell_updates: int
    comparisons: int

    def to_run_result(
        self,
        *,
        workload: str = "dna-pipeline",
        config=None,
        seed=None,
        impl=None,
        wall_time_s: float = 0.0,
        extra_metrics=None,
    ):
        """This report in the unified :class:`~repro.core.api.RunResult`
        shape: the report's counters become the result's ``metrics``
        (the raw payload bytes stay out of it)."""
        from repro.core.api import build_run_result

        metrics = {
            "success": self.success,
            "num_reads": self.num_reads,
            "num_clusters": self.num_clusters,
            "missing_chunks": self.missing_chunks,
            "cell_updates": self.cell_updates,
            "comparisons": self.comparisons,
        }
        if extra_metrics:
            metrics.update(extra_metrics)
        return build_run_result(
            workload, metrics, config=config, seed=seed, impl=impl,
            wall_time_s=wall_time_s,
        )


class DNAStorageSystem:
    """A configured DNA storage stack.

    *rs_n*/*rs_k* set the outer Reed-Solomon code; *layout* the oligo
    geometry; *cluster_threshold* the edit-distance band used to group
    reads (defaults to ~15% of the strand length, comfortably between
    intra-strand noise and inter-strand distance).
    """

    def __init__(
        self,
        layout: OligoLayout = OligoLayout(),
        rs_n: int = 255,
        rs_k: int = 223,
        channel_params: ChannelParams = ChannelParams(),
        cluster_threshold: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        self.layout = layout
        self.codec = ReedSolomonCodec(rs_n, rs_k)
        self.channel = DNAChannel(channel_params, seed=seed)
        if cluster_threshold is None:
            cluster_threshold = max(2, layout.strand_bases * 15 // 100)
        if cluster_threshold < 0:
            raise ValueError("cluster_threshold must be non-negative")
        self.cluster_threshold = cluster_threshold

    def store(self, payload: bytes) -> List[str]:
        """Encode *payload* into the oligo pool to be 'synthesized'."""
        if not payload:
            raise ValueError("payload must be non-empty")
        coded = self.codec.encode_blocks(payload)
        return encode_payload(coded, self.layout)

    def coded_length(self, payload_length: int) -> int:
        """RS-coded byte length for a payload of *payload_length*."""
        if payload_length < 1:
            raise ValueError("payload_length must be >= 1")
        blocks = -(-payload_length // self.codec.k)
        return blocks * self.codec.n

    def retrieve(
        self, reads: List[str], payload_length: int
    ) -> RetrievalReport:
        """Decode a pool of noisy *reads* back into the payload."""
        if payload_length < 1:
            raise ValueError("payload_length must be >= 1")
        counter = CellUpdateCounter()
        clustering = cluster_reads(
            reads, self.cluster_threshold, counter=counter
        )
        consensi = []
        for cluster in clustering.clusters:
            if cluster.size < 2:
                # Singletons are usually junk reads; keep them anyway --
                # the strand parser discards malformed ones.
                consensi.append(cluster.reads[0])
            else:
                consensi.append(consensus_sequence(cluster.reads))
        coded_len = self.coded_length(payload_length)
        coded, missing = decode_strands(consensi, coded_len, self.layout)
        payload = self.codec.decode_blocks(coded, payload_length)
        return RetrievalReport(
            payload=payload,
            success=payload is not None,
            num_reads=len(reads),
            num_clusters=clustering.num_clusters,
            missing_chunks=missing,
            cell_updates=counter.cells,
            comparisons=clustering.comparisons,
        )

    def roundtrip(self, payload: bytes) -> RetrievalReport:
        """Store, transmit through the channel, retrieve."""
        strands = self.store(payload)
        reads = self.channel.transmit(strands)
        return self.retrieve(reads, len(payload))
