"""Tests for the compiled kernel tier (``impl="jit"``).

numba is a *soft* dependency: on installs without it the ``@njit`` shim
leaves the kernels as plain Python, so every equivalence test here runs
the genuine jit code path -- uncompiled -- against the scalar oracles.
The tier-switch plumbing (probe, fallback resolution, compile-time
accounting) is tested with the probe state pinned both ways.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import jit as jitmod
from repro.core.errors import SimulationTimeout
from repro.core.jit import njit, numba_available, resolve_impl, timed_first_call
from repro.dna.clustering import cluster_reads
from repro.dna.editdistance import CellUpdateCounter, levenshtein_banded
from repro.dna.jitkernels import banded_kernel
from repro.obs.metrics import get_metrics
from repro.sparta.accelerator import LaneConfig
from repro.sparta.jitsim import run_jit
from repro.sparta.kernels import bfs_tasks, random_graph, streaming_tasks
from repro.sparta.noc import NocConfig
from repro.sparta.simulator import SpartaSystem, simulate


@pytest.fixture
def numba_absent():
    """Pin the probe to 'numba is not installed' for one test."""
    original = (jitmod._NUMBA, jitmod._PROBED)
    jitmod._force_numba_state(None)
    yield
    jitmod._NUMBA, jitmod._PROBED = original


@pytest.fixture
def numba_present():
    """Pin the probe to 'some numba exists' (availability checks only --
    nothing may actually compile under this fixture)."""
    original = (jitmod._NUMBA, jitmod._PROBED)
    jitmod._force_numba_state(object())
    yield
    jitmod._NUMBA, jitmod._PROBED = original


class TestTierSwitch:
    def test_probe_is_stable(self):
        assert numba_available() == numba_available()

    def test_njit_degrades_to_identity(self, numba_absent):
        def plain(x):
            return x + 1

        assert njit(plain) is plain  # bare form
        assert njit(cache=True)(plain) is plain  # parameterized form

    def test_resolve_impl_passthrough(self):
        assert resolve_impl("scalar") == "scalar"
        assert resolve_impl("numpy") == "numpy"

    def test_resolve_impl_falls_back_and_counts(self, numba_absent):
        registry = get_metrics()
        registry.enable()
        registry.reset()
        try:
            assert resolve_impl("jit") == "numpy"
            assert resolve_impl("jit", fallback="scalar") == "scalar"
            assert registry.snapshot()["counters"]["jit.fallback"] == 2
        finally:
            registry.disable()
            registry.reset()

    def test_resolve_impl_keeps_jit_when_available(self, numba_present):
        assert resolve_impl("jit") == "jit"

    def test_timed_first_call_charges_compile_timer(self):
        registry = get_metrics()
        registry.enable()
        registry.reset()
        try:
            calls = []

            @timed_first_call("test-kernel")
            def kernel(x):
                calls.append(x)
                return x * 2

            assert kernel(3) == 6
            assert kernel(4) == 8
            histograms = registry.snapshot()["histograms"]
            assert histograms["jit.compile/test-kernel"]["count"] == 1
            assert calls == [3, 4]
        finally:
            registry.disable()
            registry.reset()


def _kernel_banded(a: str, b: str, band: int, counter: CellUpdateCounter):
    """The levenshtein_banded pre-steps around a direct kernel call --
    the path that exercises the jit code even on numba-free installs."""
    if abs(len(a) - len(b)) > band:
        return None
    if len(a) < len(b):
        a, b = b, a
    distance, cells = banded_kernel(
        np.frombuffer(a.encode("utf-8"), dtype=np.uint8),
        np.frombuffer(b.encode("utf-8"), dtype=np.uint8),
        band,
    )
    counter.charge(int(cells))
    return None if distance < 0 else int(distance)


_SEQ = st.text(alphabet="ACGT", min_size=0, max_size=48)


class TestBandedKernel:
    @settings(max_examples=150, deadline=None)
    @given(a=_SEQ, b=_SEQ, band=st.integers(min_value=0, max_value=10))
    def test_matches_scalar_oracle_exactly(self, a, b, band):
        scalar_counter = CellUpdateCounter()
        jit_counter = CellUpdateCounter()
        expected = levenshtein_banded(
            a, b, band=band, counter=scalar_counter, impl="scalar"
        )
        got = _kernel_banded(a, b, band, jit_counter)
        assert got == expected
        assert jit_counter.cells == scalar_counter.cells

    def test_public_jit_impl_matches_numpy(self):
        rng = np.random.default_rng(3)
        reads = [
            "".join("ACGT"[i] for i in rng.integers(0, 4, 120))
            for _ in range(12)
        ]
        for a in reads[:6]:
            for b in reads[6:]:
                assert levenshtein_banded(
                    a, b, band=16, impl="jit"
                ) == levenshtein_banded(a, b, band=16, impl="numpy")

    def test_clustering_accepts_jit_impl(self):
        reads = ["ACGTACGT", "ACGTACGA", "TTTTGGGG", "TTTTGGGC"]
        jit_result = cluster_reads(reads, distance_threshold=2, impl="jit")
        numpy_result = cluster_reads(reads, distance_threshold=2)
        assert jit_result.num_clusters == numpy_result.num_clusters == 2
        assert jit_result.comparisons == numpy_result.comparisons
        assert jit_result.cell_updates == numpy_result.cell_updates


def _fresh_system(**overrides):
    params = {
        "num_lanes": 2,
        "contexts": 2,
        "channels": 2,
        "latency": 60,
        "cache": True,
        "failed": None,
    }
    params.update(overrides)
    return SpartaSystem(
        num_lanes=params["num_lanes"],
        lane_config=LaneConfig(num_contexts=params["contexts"]),
        noc_config=NocConfig(
            num_channels=params["channels"],
            memory_latency=params["latency"],
            enable_cache=params["cache"],
        ),
        failed_lanes=params["failed"],
    )


def _stats_dict(system, region, now):
    return dataclasses.asdict(system._stats(region, now))


class TestSpartaJitEquivalence:
    def test_run_jit_matches_scalar_bit_exactly(self):
        region = bfs_tasks(random_graph(48, seed=3), seed=3)
        scalar = _fresh_system()
        expected = dataclasses.asdict(scalar.run(region, impl="scalar"))
        jit_system = _fresh_system()
        timed_out, now = run_jit(jit_system, region, 5_000_000)
        assert not timed_out
        assert _stats_dict(jit_system, region, now) == expected

    def test_reused_system_accumulates_identically(self):
        """Warm caches and lane counters must carry across regions the
        same way they do in the object-graph simulator."""
        regions = [
            bfs_tasks(random_graph(32, seed=s), seed=s) for s in (1, 2)
        ]
        scalar = _fresh_system()
        jit_system = _fresh_system()
        for region in regions:
            expected = dataclasses.asdict(scalar.run(region, impl="scalar"))
            timed_out, now = run_jit(jit_system, region, 5_000_000)
            assert not timed_out
            assert _stats_dict(jit_system, region, now) == expected

    def test_timeout_parity_with_scalar(self):
        region = streaming_tasks(num_tasks=12, elements_per_task=64)
        scalar = _fresh_system(latency=150)
        with pytest.raises(SimulationTimeout) as excinfo:
            scalar.run(region, max_cycles=40, impl="scalar")
        jit_system = _fresh_system(latency=150)
        timed_out, now = run_jit(jit_system, region, 40)
        assert timed_out
        assert now == excinfo.value.cycles
        assert _stats_dict(jit_system, region, now) == dataclasses.asdict(
            excinfo.value.partial_stats
        )

    def test_simulate_accepts_jit_impl(self):
        region = bfs_tasks(random_graph(40, seed=7), seed=7)
        expected = simulate(region, num_lanes=2, contexts_per_lane=2,
                            memory_latency=80, impl="scalar")
        got = simulate(region, num_lanes=2, contexts_per_lane=2,
                       memory_latency=80, impl="jit")
        assert dataclasses.asdict(got) == dataclasses.asdict(expected)

    def test_failed_lanes_survive_jit_tier(self):
        region = bfs_tasks(random_graph(40, seed=9), seed=9)
        expected = simulate(region, num_lanes=4, failed_lanes=[1, 2],
                            impl="scalar")
        got = simulate(region, num_lanes=4, failed_lanes=[1, 2],
                       impl="jit")
        assert dataclasses.asdict(got) == dataclasses.asdict(expected)

    def test_non_idle_system_degrades_instead_of_guessing(self):
        """A rerun after a timeout holds mid-flight context state the
        flattened kernel has no task mapping for; ``run(impl='jit')``
        must fall back to the object tiers and stay correct."""
        region = streaming_tasks(num_tasks=12, elements_per_task=64)
        reference = _fresh_system(latency=150)
        with pytest.raises(SimulationTimeout):
            reference.run(region, max_cycles=40, impl="scalar")
        reference_stats = dataclasses.asdict(reference.run(region))

        system = _fresh_system(latency=150)
        with pytest.raises(SimulationTimeout):
            system.run(region, max_cycles=40, impl="scalar")
        assert not all(lane.fully_idle for lane in system.lanes)
        resumed = dataclasses.asdict(system.run(region, impl="jit"))
        assert resumed == reference_stats


class TestWorkloadImplPlumbing:
    def test_sparta_workload_accepts_jit(self):
        from repro.sparta.workload import SpartaWorkload

        config = {"num_nodes": 48, "num_lanes": 2, "contexts_per_lane": 2}
        jit_result = SpartaWorkload().evaluate(config, seed=1, impl="jit")
        ref_result = SpartaWorkload().evaluate(config, seed=1,
                                               impl="scalar")
        assert jit_result.metrics["cycles"] == ref_result.metrics["cycles"]
        assert jit_result.status == "ok"

    def test_dna_workload_accepts_jit(self):
        from repro.dna.workload import DNAPipelineWorkload

        config = {"payload_bytes": 32, "rs_n": 63, "rs_k": 47,
                  "mean_coverage": 6.0}
        result = DNAPipelineWorkload().evaluate(config, seed=1, impl="jit")
        assert result.status == "ok"
        assert result.metrics["payload_match"] is True
