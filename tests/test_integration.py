"""Cross-package integration tests.

These tests exercise the seams between the thrust packages -- the flows
the paper's toolchain narrative describes: HLS kernels explored by the
DSE engine, OpenMP-style kernels lowered from the HLS front-end onto the
SPARTA back-end, DNN models executed on the IMC stack, the approximate
SoftMax inside transformer attention, and assembled RISC-V machine code
executing on the SCF substrate.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.axc.attention import attention_quality
from repro.dna.channel import ChannelParams
from repro.dna.decoder import DNAStorageSystem
from repro.dna.encoding import OligoLayout
from repro.dse.explorer import NSGA2Explorer, best_tradeoff
from repro.dse.runner import DSERunner
from repro.hls.kernels import make_kernel
from repro.scf.rv32 import Assembler, RV32Simulator
from repro.scf.rv32_encoding import decode_program, encode_program
from repro.sparta.frontend import lower_loop_nest
from repro.sparta.simulator import simulate


class TestHlsToDse:
    def test_dse_finds_better_than_default(self):
        """The Sec. III toolchain promise: automatic exploration beats the
        untuned configuration."""
        runner = DSERunner(make_kernel("gemm", size=128))
        result = runner.run(NSGA2Explorer(population=12), budget=60, seed=0)
        default_like = [
            p for p in result.evaluated
            if p.config["unroll"] == 1 and not p.config["pipeline"]
        ]
        knee = best_tradeoff(result.evaluated)
        if default_like:
            assert knee.latency_s < default_like[0].latency_s

    def test_irregular_kernel_pareto_is_flat_on_partitioning(self):
        """Array partitioning buys nothing for the irregular gather kernel
        -- the structural gap SPARTA fills."""
        runner = DSERunner(make_kernel("gather", size=64))
        result = runner.run(NSGA2Explorer(population=12), budget=48, seed=1)
        by_partition = {}
        for p in result.evaluated:
            key = (
                p.config["unroll"], p.config["pipeline"],
                p.config["mul_units"], p.config["add_units"],
            )
            by_partition.setdefault(key, set()).add(
                (p.config["array_partition"], p.latency_s)
            )
        for variants in by_partition.values():
            latencies = {lat for _, lat in variants}
            assert len(latencies) == 1  # partitioning changed nothing


class TestHlsToSparta:
    def test_lowered_region_executes(self):
        nest = make_kernel("gather", size=64)
        region = lower_loop_nest(nest, seed=0)
        stats = simulate(region, num_lanes=2, contexts_per_lane=4)
        assert stats.tasks_completed == len(region.tasks)
        assert stats.memory_requests > 0

    def test_lowered_loads_match_body(self):
        nest = make_kernel("dot", size=16)
        region = lower_loop_nest(nest, seed=0)
        # dot body has 2 loads per iteration.
        assert region.total_loads == 2 * 16

    def test_context_switching_helps_lowered_irregular_kernel(self):
        """The full SPARTA story on an HLS-front-end kernel: the lowered
        gather benefits from multi-context lanes."""
        region = lower_loop_nest(make_kernel("gather", size=96), seed=1)
        one = simulate(region, num_lanes=2, contexts_per_lane=1)
        many = simulate(region, num_lanes=2, contexts_per_lane=8)
        assert many.cycles < one.cycles / 1.5

    def test_regular_kernel_has_streaming_addresses(self):
        region = lower_loop_nest(make_kernel("fir8", size=8), seed=2)
        addresses = [
            arg
            for task in region.tasks
            for kind, arg in task.steps
            if kind == "load"
        ]
        assert addresses == sorted(addresses)

    def test_iteration_chunking(self):
        nest = make_kernel("dot", size=16)
        region = lower_loop_nest(nest, iterations_per_task=4, seed=0)
        assert len(region.tasks) == 4
        with pytest.raises(ValueError):
            lower_loop_nest(nest, iterations_per_task=0)


class TestAxcToScf:
    def test_approximate_softmax_in_attention(self):
        """Sec. V's approximate SoftMax inside Sec. VII's transformer
        block: large cost saving, small quality loss."""
        report = attention_quality(seq_len=64, d_model=64, num_heads=4,
                                   seed=0)
        assert report["softmax_cost_saving"] > 0.9
        assert report["output_relative_error"] < 0.15
        assert report["top1_agreement"] > 0.9


class TestRv32MachineCodePath:
    def test_assemble_encode_ship_decode_run(self):
        """Full binary path: assembly -> machine code bytes -> decode ->
        execute, computing a checksum over preloaded memory."""
        source = """
            li t0, 0x1000
            li t1, 8
            li a0, 0
        loop:
            beq t1, x0, done
            lw t2, 0(t0)
            add a0, a0, t2
            addi t0, t0, 4
            addi t1, t1, -1
            j loop
        done:
            li a7, 93
            ecall
        """
        program = Assembler().assemble(source)
        shipped = encode_program(program)
        recovered = decode_program(shipped)
        sim = RV32Simulator()
        values = list(range(1, 9))
        sim.write_words(0x1000, values)
        assert sim.run(recovered) == sum(values)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                    max_size=8))
    def test_sum_program_property(self, values):
        source = f"""
            li t0, 0x1000
            li t1, {len(values)}
            li a0, 0
        loop:
            beq t1, x0, done
            lw t2, 0(t0)
            add a0, a0, t2
            addi t0, t0, 4
            addi t1, t1, -1
            j loop
        done:
            li a7, 93
            ecall
        """
        program = Assembler().assemble(source)
        sim = RV32Simulator()
        sim.write_words(0x1000, values)
        assert sim.run(program) == sum(values)


class TestDnaEndToEndProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=20, max_size=80),
           st.integers(min_value=0, max_value=10_000))
    # Low-entropy payloads: unwhitened strands differed only in their
    # index and merged into one cluster.
    @example(payload=bytes(14) + b"\x01" * 6, seed=661)
    @example(payload=bytes(18) + b"\x01\x02", seed=661)
    def test_roundtrip_recovers_arbitrary_payloads(self, payload, seed):
        system = DNAStorageSystem(
            layout=OligoLayout(payload_bytes=10, index_bytes=1),
            rs_n=40,
            rs_k=30,
            channel_params=ChannelParams(
                substitution_rate=0.005,
                insertion_rate=0.002,
                deletion_rate=0.002,
                mean_coverage=9,
                coverage_sigma=0.2,
            ),
            seed=seed,
        )
        report = system.roundtrip(payload)
        assert report.success
        assert report.payload == payload


class TestImcQuantizedModels:
    def test_fixed_point_weights_through_crossbar(self):
        """core.fixedpoint -> imc.crossbar: quantized weights survive the
        analog chain about as well as float weights (quantization is not
        the accuracy bottleneck, device noise is)."""
        from repro.core.fixedpoint import Q8, quantize
        from repro.imc.crossbar import AnalogCrossbar, CrossbarConfig

        rng = np.random.default_rng(0)
        w = rng.normal(0, 0.3, (32, 32))
        x = rng.uniform(-1, 1, 32)
        errors = {}
        for name, weights in (("float", w), ("q8", quantize(w, Q8))):
            xbar = AnalogCrossbar(CrossbarConfig(rows=32, cols=32), seed=5)
            xbar.program_weights(weights)
            y = xbar.mvm(x)
            y_ref = w.T @ x
            errors[name] = float(
                np.linalg.norm(y - y_ref) / np.linalg.norm(y_ref)
            )
        assert errors["q8"] < errors["float"] + 0.1
