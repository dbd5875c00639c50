"""Tests for the resilience subsystem: typed errors, fault injection,
bounded retry, deadlines, checkpoints, and resilient campaign/DSE runs."""

import json

import numpy as np
import pytest

from repro.core.errors import (
    CampaignCellError,
    DeviceFault,
    ReproError,
    SimulationTimeout,
    StateError,
    TransientFault,
    ValidationError,
)
from repro.dse.explorer import RandomExplorer
from repro.dse.runner import DSERunner
from repro.hetero.campaign import (
    CampaignCell,
    run_campaign,
    run_resilient_campaign,
)
from repro.hetero.storage import NVME_SSD, SATA_SSD
from repro.hetero.workload import SegmentationWorkload
from repro.hls.kernels import make_kernel
from repro.imc.devices import NVMDevice, RRAM_PARAMS
from repro.imc.program_verify import program_and_verify
from repro.resilience import (
    BackoffPolicy,
    CheckpointStore,
    Deadline,
    FaultInjector,
    FaultModel,
    FaultyStorage,
    ResiliencePolicy,
    resilient_run,
)
from repro.sparta.noc import NocConfig
from repro.sparta.simulator import SpartaSystem, simulate
from repro.sparta.kernels import streaming_tasks

WORKLOAD = SegmentationWorkload(num_volumes=8, epochs=1)


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc_type in (
            ValidationError,
            StateError,
            SimulationTimeout,
            DeviceFault,
            TransientFault,
        ):
            assert issubclass(exc_type, ReproError)

    def test_legacy_compatibility(self):
        # Legacy ``except ValueError`` / ``except RuntimeError`` callers
        # keep working after the typed-error migration.
        assert issubclass(ValidationError, ValueError)
        assert issubclass(SimulationTimeout, RuntimeError)
        assert issubclass(DeviceFault, RuntimeError)
        assert issubclass(StateError, RuntimeError)

    def test_transient_is_device_fault(self):
        assert issubclass(TransientFault, DeviceFault)

    def test_campaign_cell_error_roundtrip(self):
        error = CampaignCellError(
            "boom", device="GPU", storage="SATA", phase="training",
            attempts=3,
        )
        assert error.key == "GPU|SATA|training"
        restored = CampaignCellError.from_record(error.to_record())
        assert restored.key == error.key
        assert restored.attempts == 3
        assert str(restored) == "boom"


class TestBackoffPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValidationError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            BackoffPolicy(base_delay_s=-1)

    def test_exponential_growth_and_cap(self):
        policy = BackoffPolicy(
            base_delay_s=1.0, factor=2.0, max_delay_s=5.0, jitter=0.0
        )
        assert policy.delay_s(1) == 1.0
        assert policy.delay_s(2) == 2.0
        assert policy.delay_s(3) == 4.0
        assert policy.delay_s(4) == 5.0  # capped

    def test_jitter_bounds(self):
        policy = BackoffPolicy(
            base_delay_s=1.0, factor=1.0, jitter=0.25
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay_s(1, rng=rng) for _ in range(200)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert max(delays) > 1.0 > min(delays)


class TestResilientRun:
    def test_success_first_try(self):
        outcome = resilient_run(lambda: 42)
        assert outcome.value == 42
        assert outcome.attempts == 1
        assert outcome.backoff_s == 0.0
        assert not outcome.retried

    def test_retries_transient_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFault("hiccup")
            return "ok"

        outcome = resilient_run(
            flaky, policy=BackoffPolicy(max_attempts=4, jitter=0.0)
        )
        assert outcome.value == "ok"
        assert outcome.attempts == 3
        assert outcome.backoff_s > 0

    def test_attempts_bounded_by_policy(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise TransientFault("hiccup")

        with pytest.raises(TransientFault):
            resilient_run(
                always_fails, policy=BackoffPolicy(max_attempts=3)
            )
        assert len(calls) == 3

    def test_permanent_fault_not_retried(self):
        calls = []

        def permanent():
            calls.append(1)
            raise DeviceFault("dead")

        with pytest.raises(DeviceFault):
            resilient_run(permanent)
        assert len(calls) == 1

    def test_virtual_backoff_accumulates(self):
        slept = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFault("hiccup")
            return 1

        policy = BackoffPolicy(
            max_attempts=4, base_delay_s=1.0, factor=2.0, jitter=0.0
        )
        outcome = resilient_run(flaky, policy=policy, sleep=slept.append)
        assert slept == [1.0, 2.0]
        assert outcome.backoff_s == 3.0

    def test_deadline_stops_retry_storm(self):
        clock = iter([0.0, 0.0, 10.0, 10.0, 10.0]).__next__
        deadline = Deadline(wall_clock_s=5.0, clock=clock)

        def always_fails():
            raise TransientFault("hiccup")

        with pytest.raises(SimulationTimeout):
            resilient_run(
                always_fails,
                policy=BackoffPolicy(max_attempts=100),
                deadline=deadline,
            )


class TestDeadline:
    def test_cycle_budget(self):
        deadline = Deadline(max_cycles=100)
        deadline.check(cycles=99)
        with pytest.raises(SimulationTimeout) as excinfo:
            deadline.check(cycles=100, partial_stats={"done": 7})
        assert excinfo.value.partial_stats == {"done": 7}
        assert excinfo.value.cycles == 100

    def test_wall_clock_budget(self):
        times = iter([0.0, 1.0, 6.0])
        deadline = Deadline(wall_clock_s=5.0, clock=times.__next__)
        deadline.check()  # at t=1
        with pytest.raises(SimulationTimeout) as excinfo:
            deadline.check()  # at t=6
        assert excinfo.value.elapsed_s == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            Deadline(wall_clock_s=0)
        with pytest.raises(ValidationError):
            Deadline(max_cycles=0)


class TestCheckpointStore:
    def test_save_and_resume(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = CheckpointStore(path)
        store.save("a", {"value": 1})
        store.save("b", {"value": 2})
        resumed = CheckpointStore(path)
        assert "a" in resumed and "b" in resumed
        assert resumed.get("a") == {"value": 1}
        assert resumed.completed_keys() == ["a", "b"]
        assert len(resumed) == 2

    def test_file_is_valid_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        CheckpointStore(path).save("k", {"x": 1.5})
        with open(path) as fh:
            assert json.load(fh) == {"k": {"x": 1.5}}

    def test_clear(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = CheckpointStore(path)
        store.save("a", {})
        store.clear()
        assert not path.exists()
        assert len(CheckpointStore(path)) == 0

    def test_non_object_file_recovers_empty(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        store = CheckpointStore(path)
        assert store.recovered
        assert len(store) == 0

    def test_torn_file_recovers_instead_of_raising(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"half": ')  # torn mid-write
        store = CheckpointStore(path)
        assert store.recovered
        assert store.salvaged == 0
        assert len(store) == 0

    def test_truncated_store_salvages_complete_records(self, tmp_path):
        path = tmp_path / "ckpt.json"
        with CheckpointStore(path) as store:
            store.save("a", {"value": 1})
            store.save("b", {"value": 2, "nested": {"deep": True}})
            store.save("c", {"value": 3})
        text = path.read_text()
        # Tear the file mid-way through the last record.
        path.write_text(text[: text.rfind('"value": 3') + 4])
        store = CheckpointStore(path)
        assert store.recovered
        assert store.salvaged == 2
        assert store.get("a") == {"value": 1}
        assert store.get("b") == {"value": 2, "nested": {"deep": True}}
        assert "c" not in store

    def test_recovery_logs_ledger_event(self, tmp_path):
        from repro.obs.ledger import get_ledger

        path = tmp_path / "torn.json"
        path.write_text('{"half": {"x": 1}, "torn": {"y"')
        ledger = get_ledger()
        ledger.enable()
        ledger.reset()
        try:
            store = CheckpointStore(path)
        finally:
            events = ledger.events()
            ledger.disable()
            ledger.reset()
        assert store.salvaged == 1
        recovered = [
            e for e in events if e["event"] == "checkpoint.recovered"
        ]
        assert len(recovered) == 1
        assert recovered[0]["salvaged"] == 1
        assert recovered[0]["error_type"] == "JSONDecodeError"


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FaultModel(storage_transient_rate=1.5)
        with pytest.raises(ValidationError):
            FaultModel(imc_stuck_fraction=-0.1)
        with pytest.raises(ValidationError):
            FaultModel(imc_drift_acceleration=0.5)
        with pytest.raises(ValidationError):
            FaultModel(noc_latency_multiplier=0.0)

    def test_defaults_are_fault_free(self):
        model = FaultModel()
        assert model.imc_stuck_fraction == 0.0
        assert model.storage_transient_rate == 0.0


class TestFaultInjector:
    def test_same_seed_same_faults(self):
        model = FaultModel(sparta_lane_dropout=0.5)
        a = FaultInjector(model, seed=3).failed_lanes(8)
        b = FaultInjector(model, seed=3).failed_lanes(8)
        c = FaultInjector(model, seed=4).failed_lanes(8)
        assert a == b
        assert any(
            FaultInjector(model, seed=s).failed_lanes(8) != a
            for s in range(5, 15)
        ) or a != c

    def test_key_addressed_streams_are_independent(self):
        injector = FaultInjector(
            FaultModel(storage_transient_rate=0.5), seed=0
        )
        draws_a = injector.derive_rng("site-a").uniform(size=8)
        draws_a2 = injector.derive_rng("site-a").uniform(size=8)
        draws_b = injector.derive_rng("site-b").uniform(size=8)
        assert np.array_equal(draws_a, draws_a2)
        assert not np.array_equal(draws_a, draws_b)

    def test_stuck_cells_survive_programming(self):
        device = NVMDevice(RRAM_PARAMS, (32, 32), seed=0)
        injector = FaultInjector(
            FaultModel(imc_stuck_fraction=0.1), seed=0
        )
        mask = injector.inject_stuck_cells(device)
        assert 0 < device.stuck_cell_count < 32 * 32
        pinned = device.conductances[mask]
        device.program_pulse(
            np.full((32, 32), RRAM_PARAMS.g_max * 0.5)
        )
        assert np.array_equal(device.conductances[mask], pinned)
        # Unstuck cells did reprogram.
        assert not np.array_equal(
            device.conductances[~mask],
            np.full((~mask).sum(), RRAM_PARAMS.g_min),
        )

    def test_stuck_cells_degrade_program_verify(self):
        rng = np.random.default_rng(0)
        targets = rng.uniform(
            RRAM_PARAMS.g_min, RRAM_PARAMS.g_max, (32, 32)
        )
        healthy = NVMDevice(RRAM_PARAMS, (32, 32), seed=1)
        faulty = NVMDevice(RRAM_PARAMS, (32, 32), seed=1)
        FaultInjector(
            FaultModel(imc_stuck_fraction=0.2), seed=1
        ).inject_stuck_cells(faulty)
        good = program_and_verify(healthy, targets)
        bad = program_and_verify(faulty, targets)
        assert bad.converged_fraction < good.converged_fraction
        assert bad.final_rms_error > good.final_rms_error

    def test_accelerated_drift(self):
        injector = FaultInjector(
            FaultModel(imc_drift_acceleration=3.0), seed=0
        )
        params = injector.accelerated_drift(RRAM_PARAMS)
        assert params.drift_nu == pytest.approx(
            3.0 * RRAM_PARAMS.drift_nu
        )
        assert params.g_min == RRAM_PARAMS.g_min

    def test_lane_dropout_keeps_a_survivor(self):
        injector = FaultInjector(
            FaultModel(sparta_lane_dropout=1.0), seed=0
        )
        failed = injector.failed_lanes(4)
        assert len(failed) == 3

    def test_degraded_noc(self):
        injector = FaultInjector(
            FaultModel(noc_latency_multiplier=2.0), seed=0
        )
        config = injector.degraded_noc(NocConfig())
        assert config.memory_latency == 200
        assert config.hop_latency == 8

    def test_throttled_storage(self):
        injector = FaultInjector(
            FaultModel(storage_throttle_fraction=0.5), seed=0
        )
        throttled = injector.throttled_storage(NVME_SSD)
        assert throttled.bandwidth_bytes_s == pytest.approx(
            NVME_SSD.bandwidth_bytes_s / 2
        )
        assert throttled.name == NVME_SSD.name

    def test_faulty_storage_raises_transient(self):
        storage = FaultyStorage(SATA_SSD, rate=1.0, rng=0)
        with pytest.raises(TransientFault):
            storage.read_time_s(1024)
        assert storage.faults_raised == 1
        clean = FaultyStorage(SATA_SSD, rate=0.0, rng=0)
        assert clean.read_time_s(1024) == SATA_SSD.read_time_s(1024)
        assert clean.name == SATA_SSD.name  # delegation

    def test_surviving_cus(self):
        injector = FaultInjector(FaultModel(scf_cu_dropout=1.0), seed=0)
        assert injector.surviving_cus(16) == 1
        none_lost = FaultInjector(FaultModel(), seed=0)
        assert none_lost.surviving_cus(16) == 16

    def test_failed_devices_keep_a_survivor(self):
        injector = FaultInjector(FaultModel(device_dropout=1.0), seed=0)
        names = ["a", "b", "c"]
        failed = injector.failed_devices(names)
        assert len(failed) == 2


class TestSpartaResilience:
    def test_lane_dropout_remaps_work(self):
        region = streaming_tasks(num_tasks=32, elements_per_task=4)
        full = simulate(region, num_lanes=4)
        degraded = simulate(region, num_lanes=4, failed_lanes=(1, 3))
        assert degraded.tasks_completed == full.tasks_completed
        assert degraded.num_lanes == 2
        assert degraded.cycles > full.cycles

    def test_all_lanes_failed_rejected(self):
        with pytest.raises(ValidationError):
            SpartaSystem(num_lanes=2, failed_lanes=(0, 1))
        with pytest.raises(ValidationError):
            SpartaSystem(num_lanes=2, failed_lanes=(5,))


class TestScfResilience:
    def test_cu_dropout_degrades_not_dies(self):
        from repro.scf.fabric import ScalableComputeFabric
        from repro.scf.workloads import TransformerConfig

        injector = FaultInjector(FaultModel(scf_cu_dropout=0.5), seed=2)
        survivors = injector.surviving_cus(16)
        assert 1 <= survivors < 16
        fabric = ScalableComputeFabric()
        workload = TransformerConfig(seq_len=128)
        full = fabric.run_block(workload, 16)
        degraded = fabric.run_block(workload, survivors)
        assert degraded.seconds_per_block >= full.seconds_per_block
        assert degraded.sustained_flops > 0


class TestResilientCampaign:
    def test_fault_free_matches_plain_campaign(self):
        report = run_resilient_campaign(WORKLOAD)
        plain = run_campaign(WORKLOAD)
        assert len(report.cells) == len(plain)
        assert not report.errors
        assert report.total_backoff_s == 0.0
        by_key = {c.key: c for c in report.cells}
        for cell in plain:
            match = by_key[cell.key]
            assert match.total_seconds == pytest.approx(
                cell.total_seconds
            )
            assert match.attempts == 1
            assert match.executed_on is None

    def test_twenty_percent_faults_complete_without_raising(self):
        # Acceptance criterion: 20% transient storage faults, every
        # cell reported, retries bounded, seeded rerun identical.
        policy = BackoffPolicy(max_attempts=4)

        def run():
            injector = FaultInjector(
                FaultModel(storage_transient_rate=0.2), seed=42
            )
            return run_resilient_campaign(
                WORKLOAD, injector=injector,
                resilience=ResiliencePolicy(backoff=policy)
            )

        report = run()
        baseline = run_campaign(WORKLOAD)
        assert report.total_cells == len(baseline)
        assert sorted(report.keys()) == sorted(c.key for c in baseline)
        assert all(
            c.attempts <= policy.max_attempts for c in report.cells
        )
        assert all(
            e.attempts <= policy.max_attempts for e in report.errors
        )
        # Faults were actually injected and retried.
        assert report.total_attempts > len(baseline)

        rerun = run()
        assert rerun.keys() == report.keys()
        assert [c.to_record() for c in rerun.cells] == [
            c.to_record() for c in report.cells
        ]
        assert [e.to_record() for e in rerun.errors] == [
            e.to_record() for e in report.errors
        ]

    def test_failed_cells_are_recorded_not_raised(self):
        injector = FaultInjector(
            FaultModel(storage_transient_rate=1.0), seed=0
        )
        policy = BackoffPolicy(max_attempts=2)
        report = run_resilient_campaign(
            WORKLOAD, injector=injector,
            resilience=ResiliencePolicy(backoff=policy)
        )
        assert not report.cells
        assert report.failure_rate == 1.0
        for error in report.errors:
            assert isinstance(error, CampaignCellError)
            assert error.attempts == 2
            assert "attempts" in str(error)

    def test_device_dropout_remaps_to_survivor(self):
        injector = FaultInjector(
            FaultModel(device_dropout=1.0), seed=0
        )
        report = run_resilient_campaign(WORKLOAD, injector=injector)
        remapped = [c for c in report.cells if c.executed_on]
        assert remapped  # some cells ran on a survivor
        survivors = {c.executed_on for c in remapped}
        assert len(survivors) == 1
        # The matrix is still fully reported.
        assert report.total_cells == len(run_campaign(WORKLOAD))

    def test_checkpoint_resume_reproduces_outcome(self, tmp_path):
        policy = BackoffPolicy(max_attempts=4)

        def injector():
            return FaultInjector(
                FaultModel(storage_transient_rate=0.3), seed=9
            )

        full = run_resilient_campaign(
            WORKLOAD, injector=injector(),
            resilience=ResiliencePolicy(backoff=policy)
        )

        # Simulate a crash: persist only the first half of the cells.
        half = CheckpointStore(tmp_path / "half.json")
        keys = full.keys()
        for cell in full.cells:
            if keys.index(cell.key) < len(keys) // 2:
                half.save(cell.key, cell.to_record())
        for error in full.errors:
            if keys.index(error.key) < len(keys) // 2:
                half.save(error.key, error.to_record())

        resumed = run_resilient_campaign(
            WORKLOAD, injector=injector(),
            resilience=ResiliencePolicy(backoff=policy),
            checkpoint=half,
        )
        assert resumed.keys() == full.keys()
        assert sorted(
            c.to_record().items() for c in resumed.cells
        ) == sorted(c.to_record().items() for c in full.cells)
        # Every cell is now checkpointed for the next resume.
        assert len(half) == full.total_cells


class TestDSEGracefulDegradation:
    def _runner(self):
        from tests.test_dse import tiny_space

        return DSERunner(make_kernel("gemm", size=64), space=tiny_space())

    def test_failing_explorer_recorded_not_raised(self):
        class BrokenExplorer:
            name = "broken"

            def explore(self, evaluator, budget, seed=0):
                raise DeviceFault("engine dropped out")

        runner = self._runner()
        scores = runner.compare(
            [RandomExplorer(), BrokenExplorer()], budget=6, seed=0
        )
        assert "hypervolume" in scores["random"]
        assert scores["broken"] == {"error": "engine dropped out"}

    def test_transient_explorer_retried(self):
        calls = []

        class FlakyExplorer(RandomExplorer):
            name = "flaky"

            def explore(self, evaluator, budget, seed=0):
                calls.append(1)
                if len(calls) < 3:
                    raise TransientFault("hiccup")
                return super().explore(evaluator, budget, seed=seed)

        runner = self._runner()
        scores = runner.compare(
            [FlakyExplorer()], budget=6, seed=0,
            resilience=ResiliencePolicy(
                backoff=BackoffPolicy(max_attempts=4)
            ),
        )
        assert len(calls) == 3
        assert "hypervolume" in scores["flaky"]

    def test_checkpoint_skips_completed_explorers(self, tmp_path):
        runner = self._runner()
        store = CheckpointStore(tmp_path / "dse.json")
        first = runner.compare(
            [RandomExplorer()], budget=6, seed=0, checkpoint=store
        )
        calls = []

        class CountingExplorer(RandomExplorer):
            def explore(self, evaluator, budget, seed=0):
                calls.append(1)
                return super().explore(evaluator, budget, seed=seed)

        resumed = runner.compare(
            [CountingExplorer()], budget=6, seed=0,
            checkpoint=CheckpointStore(tmp_path / "dse.json"),
        )
        assert not calls  # resumed from checkpoint, no re-exploration
        assert resumed["random"] == pytest.approx(first["random"])
