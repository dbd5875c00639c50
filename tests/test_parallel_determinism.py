"""Serial-vs-parallel determinism contract for the evaluation engine.

The acceptance bar for :mod:`repro.exec`: running the same seeded
workload serially, with 2 workers, and with 4 workers must produce
byte-identical results -- and a warm cache rerun must be a pure lookup
that changes nothing.  Seeds are derived from cell keys, never from
submission order, so these tests pin that contract.
"""

import json

import pytest

from repro.dse.explorer import (
    ExhaustiveExplorer,
    NSGA2Explorer,
    RandomExplorer,
)
from repro.dse.objectives import synthesis_to_record
from repro.dse.runner import DSERunner
from repro.dse.space import hls_directive_space
from repro.exec import ParallelEvaluator, ResultCache
from repro.hetero.campaign import run_campaign, run_resilient_campaign
from repro.hetero.workload import SegmentationWorkload
from repro.hls.kernels import make_kernel
from repro.imc.sweep import crossbar_sweep, sweep_grid
from repro.resilience import (
    BackoffPolicy,
    CheckpointStore,
    FaultInjector,
    FaultModel,
    ResiliencePolicy,
)

WORKLOAD = SegmentationWorkload(num_volumes=8, epochs=1)


def _campaign_signature(report):
    return json.dumps(
        {
            "cells": [c.to_record() for c in report.cells],
            "errors": [e.to_record() for e in report.errors],
            "attempts": report.total_attempts,
            "backoff_s": report.total_backoff_s,
        },
        sort_keys=True,
    )


def _point_record(point):
    return {
        "config": point.config,
        "objectives": list(point.objectives),
        "synthesis": synthesis_to_record(point.synthesis),
    }


def _dse_signature(result):
    return json.dumps(
        {
            "evaluated": [_point_record(p) for p in result.evaluated],
            "front": [_point_record(p) for p in result.front],
            "unique": result.unique_evaluations,
        },
        sort_keys=True,
    )


class TestCampaignDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_run_campaign_bit_identical(self, workers):
        serial = run_campaign(WORKLOAD)
        parallel = run_campaign(WORKLOAD, parallel=workers)
        assert [c.to_record() for c in parallel] == [
            c.to_record() for c in serial
        ]

    def test_run_campaign_cache_round_trip(self, tmp_path):
        serial = run_campaign(WORKLOAD)
        cache = ResultCache(path=tmp_path / "campaign.json")
        cold = run_campaign(WORKLOAD, parallel=2, cache=cache)
        cold_stats = cache.stats()
        warm = run_campaign(WORKLOAD, parallel=2, cache=cache)
        warm_stats = cache.stats()
        for report in (cold, warm):
            assert [c.to_record() for c in report] == [
                c.to_record() for c in serial
            ]
        assert cold_stats["hits"] == 0
        assert warm_stats["hits"] - cold_stats["hits"] == len(serial)
        assert warm_stats["misses"] == cold_stats["misses"]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_resilient_campaign_bit_identical(self, workers):
        policy = BackoffPolicy(max_attempts=4)

        def run(parallel):
            injector = FaultInjector(
                FaultModel(storage_transient_rate=0.3,
                           device_dropout=0.3),
                seed=9,
            )
            return run_resilient_campaign(
                WORKLOAD, injector=injector,
                resilience=ResiliencePolicy(backoff=policy),
                parallel=parallel,
            )

        serial = run(None)
        # Faults actually fired: retries beyond one attempt per cell.
        assert serial.total_attempts > serial.total_cells
        parallel = run(workers)
        assert _campaign_signature(parallel) == _campaign_signature(
            serial
        )

    def test_resilient_parallel_checkpoint_resumes_serially(
        self, tmp_path
    ):
        # A parallel run's checkpoint must be readable by a serial
        # resume (and vice versa): same keys, same records.
        policy = BackoffPolicy(max_attempts=4)

        def injector():
            return FaultInjector(
                FaultModel(storage_transient_rate=0.3), seed=9
            )

        full = run_resilient_campaign(
            WORKLOAD, injector=injector(),
            resilience=ResiliencePolicy(backoff=policy),
            checkpoint=CheckpointStore(tmp_path / "par.json"),
            parallel=2,
        )
        resumed = run_resilient_campaign(
            WORKLOAD, injector=injector(),
            resilience=ResiliencePolicy(backoff=policy),
            checkpoint=CheckpointStore(tmp_path / "par.json"),
        )
        # Backoff seconds are not checkpointed, so compare the cell and
        # error records (as the serial resume test does), not totals.
        assert resumed.keys() == full.keys()
        assert [c.to_record() for c in resumed.cells] == [
            c.to_record() for c in full.cells
        ]
        assert [e.to_record() for e in resumed.errors] == [
            e.to_record() for e in full.errors
        ]


class TestDSEDeterminism:
    @pytest.fixture()
    def runner(self):
        nest = make_kernel("gemm", size=16)
        return DSERunner(nest, space=hls_directive_space(max_unroll=8))

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize(
        "explorer",
        [
            ExhaustiveExplorer(),
            RandomExplorer(),
            NSGA2Explorer(population=8),
        ],
        ids=["exhaustive", "random", "nsga2"],
    )
    def test_run_bit_identical(self, runner, explorer, workers):
        serial = runner.run(explorer, budget=40, seed=3)
        parallel = runner.run(
            explorer, budget=40, seed=3, parallel=workers
        )
        assert _dse_signature(parallel) == _dse_signature(serial)

    def test_run_cache_round_trip(self, runner, tmp_path):
        explorer = RandomExplorer()
        serial = runner.run(explorer, budget=30, seed=3)
        cache = ResultCache(path=tmp_path / "dse.json")
        cold = runner.run(
            explorer, budget=30, seed=3, parallel=2, cache=cache
        )
        warm = runner.run(
            explorer, budget=30, seed=3, parallel=2, cache=cache
        )
        assert _dse_signature(cold) == _dse_signature(serial)
        assert _dse_signature(warm) == _dse_signature(serial)
        stats = cache.stats()
        assert stats["hits"] >= len(serial.evaluated)

    def test_compare_records_wall_time_and_evaluations(self, runner):
        scores = runner.compare(
            [RandomExplorer(), ExhaustiveExplorer()],
            budget=20,
            parallel=2,
        )
        for name in ("random", "exhaustive"):
            assert scores[name]["wall_time_s"] >= 0.0
            assert scores[name]["evaluations"] >= 1.0


class TestSweepDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_crossbar_sweep_bit_identical(self, workers):
        specs = sweep_grid(6, rows=24, cols=24, num_inputs=4)
        serial = crossbar_sweep(specs)
        engine = ParallelEvaluator(max_workers=workers)
        assert crossbar_sweep(specs, parallel=engine) == serial

    def test_crossbar_sweep_warm_cache_hit_rate(self, tmp_path):
        specs = sweep_grid(6, rows=24, cols=24, num_inputs=4)
        cache = ResultCache(path=tmp_path / "sweep.json")
        cold = crossbar_sweep(specs, parallel=2, cache=cache)
        before = cache.stats()
        warm = crossbar_sweep(specs, parallel=2, cache=cache)
        after = cache.stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        assert warm == cold
        assert hits / (hits + misses) >= 0.95
