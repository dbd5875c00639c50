"""Tests for the HLS toolchain: IR, scheduling, binding, estimation,
directives and backends."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hls.allocation import bind_operations, estimate_registers
from repro.hls.backends import (
    BambuBackend,
    CommercialBackend,
    InputFormat,
    Target,
)
from repro.hls.directives import Directives, resource_map, synthesize
from repro.hls.estimation import ResourceLibrary, estimate_design
from repro.hls.ir import DataflowGraph, Operation, OpKind
from repro.hls.kernels import LoopNest, make_kernel
from repro.hls.scheduling import (
    minimum_initiation_interval,
    mobility,
    schedule_alap,
    schedule_asap,
    schedule_list,
)


def diamond_graph():
    """a -> (b, c) -> d : the classic scheduling test DAG."""
    g = DataflowGraph("diamond")
    g.add(Operation("a", OpKind.LOAD))
    g.add(Operation("b", OpKind.MUL, inputs=("a",)))
    g.add(Operation("c", OpKind.ADD, inputs=("a",)))
    g.add(Operation("d", OpKind.STORE, inputs=("b", "c")))
    return g


class TestIR:
    def test_duplicate_rejected(self):
        g = DataflowGraph()
        g.add(Operation("x", OpKind.ADD))
        with pytest.raises(ValueError):
            g.add(Operation("x", OpKind.ADD))

    def test_unknown_dependence_rejected(self):
        g = DataflowGraph()
        with pytest.raises(ValueError):
            g.add(Operation("y", OpKind.ADD, inputs=("missing",)))

    def test_sources_and_sinks(self):
        g = diamond_graph()
        assert [op.name for op in g.sources()] == ["a"]
        assert [op.name for op in g.sinks()] == ["d"]

    def test_critical_path(self):
        g = diamond_graph()
        # load(2) -> mul(3) -> store(1) = 6
        assert g.critical_path_latency() == 6

    def test_count_by_kind(self):
        counts = diamond_graph().count_by_kind()
        assert counts[OpKind.LOAD] == 1
        assert counts[OpKind.MUL] == 1

    def test_replicate_scales_and_isolates(self):
        g = diamond_graph()
        doubled = g.replicate(2)
        assert len(doubled) == 2 * len(g)
        # Copies are independent: critical path unchanged.
        assert doubled.critical_path_latency() == g.critical_path_latency()

    def test_replicate_validation(self):
        with pytest.raises(ValueError):
            diamond_graph().replicate(0)

    def test_operation_validation(self):
        with pytest.raises(ValueError):
            Operation("", OpKind.ADD)
        with pytest.raises(ValueError):
            Operation("x", OpKind.ADD, bitwidth=0)


class TestScheduling:
    def test_asap_respects_dependences(self):
        schedule = schedule_asap(diamond_graph())
        schedule.validate()
        assert schedule.start_cycle["a"] == 0
        assert schedule.start_cycle["b"] == 2
        assert schedule.makespan == 6

    def test_alap_meets_asap_makespan(self):
        g = diamond_graph()
        asap = schedule_asap(g)
        alap = schedule_alap(g)
        alap.validate()
        assert alap.makespan == asap.makespan

    def test_alap_infeasible_deadline(self):
        with pytest.raises(ValueError):
            schedule_alap(diamond_graph(), deadline=2)

    def test_mobility_zero_on_critical_path(self):
        slack = mobility(diamond_graph())
        assert slack["a"] == 0
        assert slack["b"] == 0
        assert slack["c"] > 0

    def test_list_schedule_respects_resources(self):
        g = DataflowGraph("independent_muls")
        for i in range(6):
            g.add(Operation(f"m{i}", OpKind.MUL))
        schedule = schedule_list(g, {OpKind.MUL: 2})
        usage = schedule.resource_usage()
        assert usage[OpKind.MUL] <= 2
        assert schedule.makespan >= 3 * 3  # 6 muls / 2 units * 3 cycles

    def test_list_schedule_unconstrained_matches_asap(self):
        g = diamond_graph()
        unconstrained = schedule_list(g, {})
        assert unconstrained.makespan == schedule_asap(g).makespan

    def test_list_schedule_rejects_bad_resources(self):
        with pytest.raises(ValueError):
            schedule_list(diamond_graph(), {OpKind.MUL: 0})

    def test_validate_catches_violation(self):
        g = diamond_graph()
        schedule = schedule_asap(g)
        schedule.start_cycle["d"] = 0
        with pytest.raises(ValueError):
            schedule.validate()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_fewer_resources_never_faster(self, units):
        body = make_kernel("fir8", size=4).body
        tight = schedule_list(body, {OpKind.MUL: units})
        loose = schedule_list(body, {OpKind.MUL: units + 4})
        assert tight.makespan >= loose.makespan

    def test_min_ii_formula(self):
        g = DataflowGraph()
        for i in range(8):
            g.add(Operation(f"m{i}", OpKind.MUL))
        assert minimum_initiation_interval(g, {OpKind.MUL: 4}) == 2
        assert minimum_initiation_interval(g, {OpKind.MUL: 3}) == 3
        assert minimum_initiation_interval(g, {}) == 1


class TestBinding:
    def test_serial_ops_share_a_unit(self):
        g = DataflowGraph()
        g.add(Operation("m1", OpKind.MUL))
        g.add(Operation("m2", OpKind.MUL, inputs=("m1",)))
        binding = bind_operations(schedule_asap(g))
        assert binding.units[OpKind.MUL] == 1

    def test_parallel_ops_need_two_units(self):
        g = DataflowGraph()
        g.add(Operation("m1", OpKind.MUL))
        g.add(Operation("m2", OpKind.MUL))
        binding = bind_operations(schedule_asap(g))
        assert binding.units[OpKind.MUL] == 2

    def test_binding_covers_all_ops(self):
        g = diamond_graph()
        binding = bind_operations(schedule_asap(g))
        assert set(binding.unit_of) == {"a", "b", "c", "d"}

    def test_register_estimate_positive(self):
        assert estimate_registers(schedule_asap(diamond_graph())) >= 1

    def test_constrained_schedule_binding_within_budget(self):
        body = make_kernel("fir8", size=4).body
        schedule = schedule_list(body, {OpKind.MUL: 2})
        binding = bind_operations(schedule)
        assert binding.units[OpKind.MUL] <= 2


class TestEstimation:
    def test_more_units_more_area(self):
        g_small = diamond_graph()
        small = estimate_design(
            schedule_asap(g_small), bind_operations(schedule_asap(g_small))
        )
        g_big = g_small.replicate(4)
        sched_big = schedule_asap(g_big)
        big = estimate_design(sched_big, bind_operations(sched_big))
        assert big.luts > small.luts
        assert big.clock_mhz < small.clock_mhz

    def test_narrow_bitwidth_cheaper(self):
        g = diamond_graph()
        sched = schedule_asap(g)
        binding = bind_operations(sched)
        wide = estimate_design(sched, binding, average_bitwidth=32)
        narrow = estimate_design(sched, binding, average_bitwidth=8)
        assert narrow.luts < wide.luts
        assert narrow.dsps <= wide.dsps

    def test_latency_conversion(self):
        g = diamond_graph()
        sched = schedule_asap(g)
        est = estimate_design(sched, bind_operations(sched))
        assert est.latency_s == pytest.approx(
            est.cycles / (est.clock_mhz * 1e6)
        )

    def test_library_bitwidth_validation(self):
        with pytest.raises(ValueError):
            ResourceLibrary().cost_of(OpKind.ADD, 0)


class TestDirectivesAndSynthesis:
    def test_directive_validation(self):
        with pytest.raises(ValueError):
            Directives(unroll=0)
        with pytest.raises(ValueError):
            Directives(mul_units=0)

    def test_kernel_factory(self):
        nest = make_kernel("gemm", size=64)
        assert nest.trip_count == 64
        assert nest.has_reduction
        with pytest.raises(ValueError):
            make_kernel("nope")
        with pytest.raises(ValueError):
            make_kernel("dot", size=0)

    def test_loopnest_validation(self):
        with pytest.raises(ValueError):
            LoopNest("x", trip_count=0, body=diamond_graph())

    @pytest.mark.parametrize(
        "config, key",
        [({"kernel": "nope"}, "'kernel'"), ({"size": 0}, "'size'")],
    )
    def test_bad_config_is_a_typed_boundary_error(self, config, key):
        from repro.core.api import get_workload
        from repro.core.errors import ValidationError
        from repro.serve import EvaluationService
        from repro.serve.request import EvalRequest

        with pytest.raises(ValidationError, match=key):
            get_workload("hls").evaluate(config)
        service = EvaluationService(batch_size=2, batch_wait_s=0.001)
        try:
            result = service.submit_request(
                EvalRequest("hls", config), block=True
            ).result(timeout=60)
        finally:
            service.shutdown()
        assert result.status == "error"
        assert result.error_type == "ValidationError"
        assert key in result.error

    def test_unroll_reduces_cycles(self):
        nest = make_kernel("gemm", size=64)
        base = synthesize(nest, Directives(unroll=1, mul_units=16,
                                           add_units=16))
        unrolled = synthesize(nest, Directives(unroll=8, mul_units=16,
                                               add_units=16,
                                               array_partition=8))
        assert unrolled.total_cycles < base.total_cycles
        assert unrolled.estimate.luts > base.estimate.luts

    def test_pipeline_reduces_cycles(self):
        nest = make_kernel("fir8", size=128)
        flat = synthesize(nest, Directives(pipeline=False))
        piped = synthesize(nest, Directives(pipeline=True))
        assert piped.total_cycles < flat.total_cycles
        assert piped.initiation_interval < flat.initiation_interval

    def test_irregular_kernel_ignores_partitioning(self):
        nest = make_kernel("gather", size=64)
        r1 = resource_map(nest, Directives(array_partition=1))
        r8 = resource_map(nest, Directives(array_partition=8))
        assert r1[OpKind.LOAD] == r8[OpKind.LOAD]

    def test_regular_kernel_uses_partitioning(self):
        nest = make_kernel("fir8", size=64)
        r8 = resource_map(nest, Directives(array_partition=8))
        assert r8[OpKind.LOAD] == 16

    def test_unroll_capped_at_trip_count(self):
        nest = make_kernel("dot", size=4)
        result = synthesize(nest, Directives(unroll=64))
        assert result.total_cycles > 0


class TestBackends:
    def test_feature_matrix(self):
        bambu = BambuBackend().feature_row()
        commercial = CommercialBackend().feature_row()
        assert bambu["ir_input"] and not commercial["ir_input"]
        assert bambu["multi_vendor"] and not commercial["multi_vendor"]
        assert bambu["asic_target"] and not commercial["asic_target"]
        assert bambu["custom_passes"] and not commercial["custom_passes"]

    def test_commercial_rejects_ir_input(self):
        nest = make_kernel("dot", size=8)
        with pytest.raises(ValueError):
            CommercialBackend().synthesize(
                nest, input_format=InputFormat.COMPILER_IR
            )

    def test_commercial_rejects_asic_target(self):
        nest = make_kernel("dot", size=8)
        with pytest.raises(ValueError):
            CommercialBackend().synthesize(nest, target=Target.ASIC_OPENROAD)

    def test_bambu_accepts_ir_and_asic(self):
        nest = make_kernel("dot", size=8)
        result = BambuBackend().synthesize(
            nest,
            input_format=InputFormat.COMPILER_IR,
            target=Target.ASIC_OPENROAD,
        )
        assert result.total_cycles > 0

    def test_custom_pass_hook(self):
        bambu = BambuBackend()
        bambu.register_pass(
            lambda d: Directives(
                unroll=d.unroll, pipeline=True,
                array_partition=d.array_partition,
                mul_units=d.mul_units, add_units=d.add_units,
            )
        )
        nest = make_kernel("fir8", size=64)
        optimized = bambu.synthesize(nest, Directives(pipeline=False))
        baseline = CommercialBackend().synthesize(
            nest, Directives(pipeline=False)
        )
        assert optimized.total_cycles < baseline.total_cycles

    def test_commercial_pass_hook_denied(self):
        with pytest.raises(PermissionError):
            CommercialBackend().register_pass(lambda d: d)
