"""The declarative campaign DAG layer (repro.campaign).

Covers graph construction and validation (topology, cycles, refs,
JSON round-trips), gate-driven backtracking under ResiliencePolicy,
checkpoint/resume mid-graph, byte-identity across serial / pooled /
served execution, the legacy thin wrappers' equivalence with inline
reproductions of the bespoke loops they replaced, and the composite
DSE -> hetero -> Pareto campaign riding a live EvaluationService.
"""

import json

import pytest

from repro import obs
from repro.campaign import (
    CampaignGraph,
    Gate,
    GraphRunner,
    ReduceNode,
    ResultRef,
    composite_campaign_graph,
)
from repro.campaign.runner import _TRACE_OCCURRENCES
from repro.core.api import build_run_result, register_workload
from repro.core.errors import ReproError, ValidationError
from repro.imc.sweep import CrossbarSweepSpec
from repro.obs.ledger import get_ledger
from repro.obs.trace import canonical_spans, get_tracer
from repro.resilience import (
    BackoffPolicy,
    CheckpointStore,
    ResiliencePolicy,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    get_tracer().reset()
    get_ledger().reset()
    yield
    obs.disable()
    get_tracer().reset()
    get_ledger().reset()


class _SeedGatedWorkload:
    """``value`` equals the seed; ``impl_used`` echoes the impl -- the
    deterministic knob gate-backtracking tests turn."""

    name = "test-campaign-seedy"

    def space(self):
        return {"target": (2, 3)}

    def evaluate(self, config, *, seed=0, impl=None):
        return build_run_result(
            self.name,
            {"value": float(seed), "impl_used": impl or "base"},
            config=dict(config),
            seed=seed,
            impl=impl,
        )


register_workload(_SeedGatedWorkload(), replace=True)


def _tiny_specs(n=3):
    return [
        CrossbarSweepSpec(rows=16, cols=16, num_inputs=2, seed=s)
        for s in range(n)
    ]


def _crossbar_graph(n=3):
    graph = CampaignGraph(name="modes")
    for index, spec in enumerate(_tiny_specs(n)):
        graph.evaluate(
            f"cell-{index}",
            "imc-crossbar",
            config={
                "rows": spec.rows,
                "cols": spec.cols,
                "device": spec.device,
                "wire_resistance_ohm": spec.wire_resistance_ohm,
                "use_program_verify": spec.use_program_verify,
                "num_inputs": spec.num_inputs,
                "t_seconds": spec.t_seconds,
            },
            seed=spec.seed,
        )
    graph.reduce(
        "front",
        op="pareto",
        params={"metrics": ["rms_error", "energy_j"]},
        deps=tuple(f"cell-{i}" for i in range(n)),
    )
    return graph


# ------------------------------------------------------------- topology


class TestTopology:
    def test_layers_follow_dependencies_and_insertion_order(self):
        graph = CampaignGraph()
        graph.task("b", fn=lambda p: "b")
        graph.task("a", fn=lambda p: "a")
        graph.task("c", fn=lambda p: "c", deps=("a", "b"))
        graph.task("d", fn=lambda p: "d", deps=("a",))
        graph.reduce("r", fn=lambda deps: len(deps), deps=("c", "d"))
        assert graph.schedule() == [["b", "a"], ["c", "d"], ["r"]]

    def test_duplicate_node_rejected(self):
        graph = CampaignGraph()
        graph.task("a", fn=lambda p: 1)
        with pytest.raises(ValidationError, match="duplicate"):
            graph.task("a", fn=lambda p: 2)

    def test_unknown_dependency_rejected(self):
        graph = CampaignGraph()
        graph.task("a", fn=lambda p: 1, deps=("ghost",))
        with pytest.raises(ValidationError, match="unknown node 'ghost'"):
            graph.schedule()

    def test_cycle_rejected(self):
        graph = CampaignGraph()
        graph.task("a", fn=lambda p: 1, deps=("b",))
        graph.task("b", fn=lambda p: 2, deps=("a",))
        graph.task("root", fn=lambda p: 0)
        with pytest.raises(ValidationError, match="cycle"):
            graph.schedule()

    def test_result_ref_is_an_implicit_dependency(self):
        graph = CampaignGraph()
        graph.evaluate("up", "test-campaign-seedy", seed=3)
        graph.evaluate(
            "down",
            "test-campaign-seedy",
            config={"target": ResultRef("up", "metrics.value")},
        )
        assert graph.schedule() == [["up"], ["down"]]

    def test_result_ref_dotted_path_errors_are_structured(self):
        ref = ResultRef("up", "metrics.missing")
        result = build_run_result("w", {"value": 1.0}, config={}, seed=0)
        with pytest.raises(ValidationError, match="no key 'missing'"):
            ref.resolve(result)

    def test_reduce_needs_exactly_one_of_fn_or_op(self):
        with pytest.raises(ValidationError, match="exactly one"):
            ReduceNode(name="r")
        with pytest.raises(ValidationError, match="unknown reduce op"):
            ReduceNode(name="r", op="median")


class TestSerialization:
    def test_eval_reduce_graph_round_trips_through_json(self):
        graph = composite_campaign_graph(dse_budget=8)
        payload = json.loads(json.dumps(graph.to_json()))
        clone = CampaignGraph.from_json(payload)
        assert clone.to_json() == graph.to_json()
        assert clone.schedule() == graph.schedule()

    def test_refs_and_gates_round_trip(self):
        graph = CampaignGraph(name="g")
        graph.evaluate("up", "test-campaign-seedy", seed=2)
        graph.evaluate(
            "down",
            "test-campaign-seedy",
            config={"target": ResultRef("up", "metrics.value")},
            gate=Gate(
                expect_metrics=("value",),
                predicates=(("value", ">=", 0.0),),
            ),
            resilience=ResiliencePolicy(max_backtracks=2, seed_step=3),
        )
        clone = CampaignGraph.from_json(graph.to_json())
        node = clone.node("down")
        assert node.config["target"] == ResultRef("up", "metrics.value")
        assert node.gate.predicates == (("value", ">=", 0.0),)
        assert node.resilience.max_backtracks == 2
        assert node.resilience.seed_step == 3

    def test_task_nodes_and_callables_cannot_serialize(self):
        graph = CampaignGraph()
        graph.task("t", fn=lambda p: 1)
        with pytest.raises(ValidationError, match="cannot be serialized"):
            graph.to_json()
        graph2 = CampaignGraph()
        graph2.evaluate("e", "test-campaign-seedy")
        graph2.reduce("r", fn=lambda deps: 1, deps=("e",))
        with pytest.raises(ValidationError, match="cannot be serialized"):
            graph2.to_json()
        with pytest.raises(ValidationError, match="cannot be serialized"):
            Gate(check=lambda v: None).to_json()

    @pytest.mark.parametrize(
        "node,match",
        [
            ({"name": "a", "workload": "hls", "seed": "s"},
             "node 1: bad 'seed'"),
            ({"workload": "hls"}, "node 1: missing 'name'"),
            ({"name": "a"}, "node 1: missing 'workload'"),
            ({"name": "a", "workload": "hls", "config": [1, 2]},
             "node 1: bad 'config'"),
            ({"kind": "reduce", "name": "r"}, "node 1: missing 'op'"),
            ({"kind": "mystery", "name": "m"}, "node 1: unknown kind"),
            ("not-a-node", "node 1: must be a JSON object"),
        ],
    )
    def test_bad_spec_nodes_raise_validation_errors(self, node, match):
        spec = {"nodes": [{"name": "ok", "workload": "hls"}, node]}
        with pytest.raises(ValidationError, match=match):
            CampaignGraph.from_json(spec)


# ---------------------------------------------------- gates / backtracking


class TestGates:
    def test_unknown_predicate_op_rejected(self):
        with pytest.raises(ValidationError, match="unknown gate op"):
            Gate(predicates=(("value", "~", 1),))

    def test_gate_failure_without_budget_fails_node_and_skips_downstream(
        self,
    ):
        graph = CampaignGraph()
        graph.evaluate(
            "n",
            "test-campaign-seedy",
            seed=0,
            gate=Gate(predicates=(("value", ">=", 99.0),)),
        )
        graph.reduce("r", op="collect", deps=("n",))
        report = GraphRunner().run(graph)
        assert report.results["n"].status == "error"
        assert report.results["n"].error_type == "GateFailure"
        assert "violates" in report.results["n"].error
        assert report.results["r"].status == "skipped"
        with pytest.raises(ValidationError, match="is error"):
            report.value("n")

    def test_backtracking_advances_seed_until_gate_passes(self):
        graph = CampaignGraph()
        graph.evaluate(
            "n",
            "test-campaign-seedy",
            seed=0,
            gate=Gate(predicates=(("value", ">=", 2.0),)),
            resilience=ResiliencePolicy(max_backtracks=3),
        )
        report = GraphRunner().run(graph)
        outcome = report.results["n"]
        assert outcome.ok
        assert outcome.backtracks == 2
        assert report.value("n").metrics["value"] == 2.0
        assert report.counts()["backtracks"] == 2

    def test_fallback_impl_used_on_final_backtrack(self):
        graph = CampaignGraph()
        graph.evaluate(
            "n",
            "test-campaign-seedy",
            seed=0,
            gate=Gate(
                check=lambda v: None
                if v.metrics["impl_used"] == "alt"
                else "needs the alt impl"
            ),
            resilience=ResiliencePolicy(
                max_backtracks=1, fallback_impl="alt"
            ),
        )
        report = GraphRunner().run(graph)
        assert report.results["n"].ok
        assert report.results["n"].backtracks == 1
        assert report.value("n").metrics["impl_used"] == "alt"

    def test_exhausted_backtracks_report_gate_failures(self):
        graph = CampaignGraph()
        graph.evaluate(
            "n",
            "test-campaign-seedy",
            seed=0,
            gate=Gate(predicates=(("value", ">=", 99.0),)),
            resilience=ResiliencePolicy(max_backtracks=2),
        )
        report = GraphRunner().run(graph)
        outcome = report.results["n"]
        assert outcome.status == "error"
        assert outcome.backtracks == 2
        assert outcome.gate_failures

    def test_runner_default_resilience_applies_to_bare_nodes(self):
        graph = CampaignGraph()
        graph.evaluate(
            "n",
            "test-campaign-seedy",
            seed=0,
            gate=Gate(predicates=(("value", ">=", 1.0),)),
        )
        runner = GraphRunner(
            resilience=ResiliencePolicy(max_backtracks=1)
        )
        assert runner.run(graph).results["n"].ok


class TestResiliencePolicy:
    def test_validation_and_json_round_trip(self):
        with pytest.raises(ValidationError):
            ResiliencePolicy(max_backtracks=-1)
        policy = ResiliencePolicy(
            backoff=BackoffPolicy(max_attempts=2),
            max_backtracks=1,
            fallback_impl="numpy",
        )
        assert ResiliencePolicy.from_json(policy.to_json()) == policy


# ------------------------------------------------------ checkpoint/resume


class TestCheckpointResume:
    def test_mid_graph_resume_restores_upstream_and_reruns_failure(
        self, tmp_path
    ):
        calls = {"a": 0}

        def build(fail):
            graph = CampaignGraph(name="resume")
            graph.evaluate("a", "test-campaign-seedy", seed=4)

            def task(payload):
                calls["a"] += 1
                if fail:
                    raise RuntimeError("boom")
                return {"doubled": 2 * payload["value"]}

            graph.task(
                "b",
                fn=task,
                payload={"value": ResultRef("a", "metrics.value")},
                local=True,
            )
            graph.reduce("r", op="collect", deps=("b",))
            return graph

        store = CheckpointStore(tmp_path / "campaign.json")
        first = GraphRunner(checkpoint=store).run(build(fail=True))
        assert first.results["a"].ok and not first.results["a"].resumed
        assert first.results["b"].status == "error"
        assert first.results["r"].status == "skipped"

        resumed_store = CheckpointStore(tmp_path / "campaign.json")
        second = GraphRunner(checkpoint=resumed_store).run(
            build(fail=False)
        )
        assert second.results["a"].resumed
        assert not second.results["b"].resumed
        assert second.value("b") == {"doubled": 8.0}
        assert second.value("r") == [{"doubled": 8.0}]
        assert calls["a"] == 2  # failed once, re-ran once
        assert (
            second.value("a").canonical_json()
            == first.value("a").canonical_json()
        )

        third = GraphRunner(
            checkpoint=CheckpointStore(tmp_path / "campaign.json")
        ).run(build(fail=False))
        assert third.results["a"].resumed
        assert third.results["b"].resumed
        assert third.value("b") == {"doubled": 8.0}

    def test_eval_checkpoint_keys_are_content_addressed(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        graph = CampaignGraph(name="content")
        graph.evaluate("n", "test-campaign-seedy", seed=1)
        GraphRunner(checkpoint=store).run(graph)

        changed = CampaignGraph(name="content")
        changed.evaluate("n", "test-campaign-seedy", seed=2)
        report = GraphRunner(
            checkpoint=CheckpointStore(tmp_path / "ck.json")
        ).run(changed)
        # Same node name, different request -> not resumed.
        assert not report.results["n"].resumed
        assert report.value("n").metrics["value"] == 2.0

    def test_cross_mode_resume(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        serial = GraphRunner(checkpoint=store).run(_crossbar_graph())
        pooled = GraphRunner(
            parallel=2,
            checkpoint=CheckpointStore(tmp_path / "ck.json"),
        ).run(_crossbar_graph())
        for name in ("cell-0", "cell-1", "cell-2"):
            assert pooled.results[name].resumed
            assert (
                pooled.value(name).canonical_json()
                == serial.value(name).canonical_json()
            )


# ------------------------------------------------------- execution modes


class TestExecutionModes:
    def test_serial_pool_and_served_runs_are_byte_identical(self):
        from repro.serve import EvaluationService

        serial = GraphRunner().run(_crossbar_graph())
        pooled = GraphRunner(parallel=2).run(_crossbar_graph())
        service = EvaluationService(batch_size=4, batch_wait_s=0.001)
        try:
            served = GraphRunner(service=service).run(_crossbar_graph())
        finally:
            service.shutdown()

        for name in ("cell-0", "cell-1", "cell-2"):
            canonical = serial.value(name).canonical_json()
            assert pooled.value(name).canonical_json() == canonical
            assert served.value(name).canonical_json() == canonical
        front = [r.canonical_json() for r in serial.value("front")]
        assert [
            r.canonical_json() for r in pooled.value("front")
        ] == front
        assert [
            r.canonical_json() for r in served.value("front")
        ] == front

    def test_trace_structure_is_deterministic_across_runs(self):
        def trace_once():
            _TRACE_OCCURRENCES.clear()
            tracer = obs.enable_tracing()
            tracer.reset()
            GraphRunner().run(_crossbar_graph(2))
            spans = canonical_spans(tracer.spans())
            tracer.reset()
            obs.disable()
            return spans

        first = trace_once()
        second = trace_once()
        assert first == second
        names = [s["name"] for s in first]
        assert names[0] == "campaign"
        assert names.count("campaign.layer") == 2  # evals + reduce

    def test_campaign_ledger_stream(self):
        obs.enable_ledger()
        get_ledger().reset()
        GraphRunner().run(_crossbar_graph(2))
        names = [e["event"] for e in get_ledger().events()]
        assert names[0] == "campaign.started"
        assert names[-1] == "campaign.finished"
        assert names.count("node.done") == 3

    def test_error_capture_and_skip_propagation(self):
        graph = CampaignGraph()
        graph.evaluate(
            "bad", "imc-crossbar", config={"rows": 16, "device": "bogus"}
        )
        graph.evaluate("good", "test-campaign-seedy", seed=1)
        graph.reduce("r", op="collect", deps=("bad", "good"))
        graph.reduce(
            "tolerant",
            op="collect",
            deps=("bad", "good"),
            allow_failed_deps=True,
        )
        report = GraphRunner().run(graph)
        assert report.results["bad"].status == "error"
        assert report.results["bad"].error_type == "ValidationError"
        assert report.results["r"].status == "skipped"
        assert len(report.value("tolerant")) == 1  # ok values only
        assert not report.ok
        assert report.counts()["error"] == 1

    def test_uncaptured_error_aborts_on_every_runner(self):
        from repro.serve import EvaluationService

        def graph():
            graph = CampaignGraph()
            graph.evaluate(
                "bad", "hls", config={"kernel": "nope"},
                capture_errors=False,
            )
            return graph

        with pytest.raises(ValidationError, match="'kernel'"):
            GraphRunner().run(graph())
        service = EvaluationService(batch_size=4, batch_wait_s=0.001)
        try:
            with pytest.raises(
                ReproError, match="'bad'.*ValidationError.*'kernel'"
            ):
                GraphRunner(service=service).run(graph())
        finally:
            service.shutdown()


# -------------------------------------------------- wrapper equivalence


class TestWrapperEquivalence:
    def test_crossbar_sweep_matches_inline_loop(self):
        from repro.imc.sweep import crossbar_sweep, evaluate_crossbar_spec

        specs = _tiny_specs(4)
        legacy = [evaluate_crossbar_spec(spec) for spec in specs]
        assert crossbar_sweep(specs) == legacy
        assert crossbar_sweep(specs, parallel=2) == legacy

    def test_sweep_row_round_trip(self):
        from repro.imc.sweep import (
            evaluate_crossbar_spec,
            sweep_row_from_run_result,
            sweep_row_to_run_result,
        )

        row = evaluate_crossbar_spec(_tiny_specs(1)[0])
        result = sweep_row_to_run_result(row)
        assert result.workload == "imc-crossbar"
        assert result.seed == row["seed"]
        assert sweep_row_from_run_result(result) == row

    def test_run_campaign_matches_inline_loop(self):
        from repro.hetero.campaign import (
            CampaignCell,
            DEFAULT_DEVICES,
            DEFAULT_STORAGE,
            _campaign_cell_task,
            _scheduled_cells,
            run_campaign,
        )
        from repro.hetero.workload import SegmentationWorkload

        workload = SegmentationWorkload(num_volumes=8, epochs=1)
        legacy = [
            CampaignCell.from_record(
                _campaign_cell_task((workload, device, storage, phase))
            )
            for device, storage, phase in _scheduled_cells(
                DEFAULT_DEVICES, DEFAULT_STORAGE
            )
        ]
        assert run_campaign(workload) == legacy
        assert run_campaign(workload, parallel=2) == legacy

    def test_campaign_cell_run_result_round_trip(self):
        from repro.hetero.campaign import CampaignCell

        cell = CampaignCell(
            device="gpu",
            storage="nvme",
            phase="inference",
            total_seconds=1.5,
            throughput_volumes_s=2.0,
            energy_j=3.0,
            bottleneck="compute",
            attempts=2,
            executed_on="cpu",
        )
        assert CampaignCell.from_run_result(cell.to_run_result()) == cell

    def test_resilient_campaign_policy_shim(self):
        from repro.hetero.campaign import run_resilient_campaign
        from repro.hetero.workload import SegmentationWorkload
        from repro.resilience import FaultInjector, FaultModel

        workload = SegmentationWorkload(num_volumes=8, epochs=1)
        backoff = BackoffPolicy(max_attempts=3, base_delay_s=0.001)

        def fresh_injector():
            return FaultInjector(
                FaultModel(storage_transient_rate=0.3), seed=7
            )

        def run():
            return run_resilient_campaign(
                workload,
                injector=fresh_injector(),
                resilience=ResiliencePolicy(backoff=backoff),
            )

        first, second = run(), run()
        assert first.cells == second.cells
        assert [str(e) for e in first.errors] == [
            str(e) for e in second.errors
        ]
        assert first.total_backoff_s == second.total_backoff_s
        # The bare policy= spelling is gone, not silently ignored.
        with pytest.raises(TypeError):
            run_resilient_campaign(
                workload, injector=fresh_injector(), policy=backoff
            )

    def test_dse_compare_matches_inline_scoring(self):
        import numpy as np

        from repro.dse.explorer import (
            RandomExplorer,
            SimulatedAnnealingExplorer,
        )
        from repro.dse.runner import DSERunner
        from repro.hls.kernels import make_kernel

        runner = DSERunner(make_kernel("gemm", 16))
        explorers = [RandomExplorer(), SimulatedAnnealingExplorer()]
        scores = runner.compare(explorers, budget=8, seed=0)

        results = {
            e.name: runner.run(e, 8, seed=0) for e in explorers
        }
        all_objs = np.vstack(
            [
                np.array([p.objectives for p in res.evaluated])
                for res in results.values()
            ]
        )
        reference = all_objs.max(axis=0) * 1.1
        assert list(scores) == [e.name for e in explorers]
        for name, res in results.items():
            expected = {
                "hypervolume": res.hypervolume(reference),
                "front_size": float(len(res.front)),
                "evaluations": float(len(res.evaluated)),
                "unique_evaluations": float(res.unique_evaluations),
                "best_latency_s": res.best_latency.latency_s,
                "best_area": res.best_area.area,
            }
            measured = dict(scores[name])
            assert measured.pop("wall_time_s") >= 0.0
            assert measured == expected

    def test_dse_run_still_explores(self):
        from repro.dse.explorer import RandomExplorer
        from repro.dse.runner import DSERunner, ExplorationResult
        from repro.hls.kernels import make_kernel

        runner = DSERunner(make_kernel("dot", 8))
        result = runner.run(RandomExplorer(), 6, seed=1)
        assert result.front and result.evaluated
        rebuilt = ExplorationResult.from_run_result(
            result.to_run_result()
        )
        assert (
            rebuilt.to_run_result().metrics
            == result.to_run_result().metrics
        )


# ------------------------------------------------- composite acceptance


class TestCompositeCampaign:
    def test_composite_graph_on_service_with_checkpoint_and_trace(
        self, tmp_path
    ):
        from repro.serve import EvaluationService

        tracer = obs.enable_tracing()
        obs.enable_ledger()
        tracer.reset()
        get_ledger().reset()

        graph = composite_campaign_graph(dse_budget=8)
        store = CheckpointStore(tmp_path / "composite.json")
        service = EvaluationService(batch_size=4, batch_wait_s=0.001)
        try:
            report = GraphRunner(service=service, checkpoint=store).run(
                graph
            )
        finally:
            service.shutdown()
        assert report.ok
        assert len(report.layers) == 3
        front = report.value("pareto")
        assert front  # time/energy frontier over the hetero cells
        # DSE front size flowed into every hetero cell's request: the
        # result digests match a request rebuilt with the ref resolved.
        from repro.core.api import request_digest

        dse_front = report.value("dse").metrics["front_size"]
        for name in graph.node("pareto").deps:
            node = graph.node(name)
            resolved = dict(node.config)
            resolved["num_volumes"] = dse_front
            assert report.value(name).config_digest == request_digest(
                node.workload, resolved, seed=node.seed, impl=node.impl
            )

        span_names = [s["name"] for s in tracer.spans()]
        assert "campaign" in span_names
        assert "campaign.layer" in span_names
        event_names = [e["event"] for e in get_ledger().events()]
        assert "campaign.started" in event_names
        assert "campaign.finished" in event_names
        assert event_names.count("checkpoint.saved") == len(
            report.results
        ) - 1  # every node but the recomputed reduce

        # Resume from the checkpoint without the service: every eval
        # node restores byte-identically, the reduce recomputes equal.
        resumed = GraphRunner(
            checkpoint=CheckpointStore(tmp_path / "composite.json")
        ).run(composite_campaign_graph(dse_budget=8))
        assert resumed.ok
        for name, result in resumed.results.items():
            if result.kind == "eval":
                assert result.resumed, name
                assert (
                    result.value.canonical_json()
                    == report.value(name).canonical_json()
                )
        assert [r.canonical_json() for r in resumed.value("pareto")] == [
            r.canonical_json() for r in front
        ]


# ----------------------------------------------------------------- CLI


class TestCampaignCLI:
    def _spec(self, tmp_path):
        graph = CampaignGraph(name="cli-demo")
        for index, spec in enumerate(_tiny_specs(2)):
            graph.evaluate(
                f"cell-{index}",
                "imc-crossbar",
                config={
                    "rows": spec.rows,
                    "cols": spec.cols,
                    "num_inputs": spec.num_inputs,
                },
                seed=spec.seed,
            )
        graph.reduce(
            "best",
            op="argmin",
            params={"metric": "rms_error"},
            deps=("cell-0", "cell-1"),
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(graph.to_json()))
        return str(path)

    def test_run_status_resume(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._spec(tmp_path)
        checkpoint = str(tmp_path / "ck.json")
        out = str(tmp_path / "report.json")
        assert (
            main(
                ["campaign", "run", spec, "--checkpoint", checkpoint,
                 "--out", out]
            )
            == 0
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"] and report["counts"]["nodes"] == 3

        assert (
            main(["campaign", "status", spec, "--checkpoint", checkpoint])
            == 0
        )
        assert "2/3 nodes checkpointed" in capsys.readouterr().out

        assert (
            main(
                ["campaign", "resume", spec, "--checkpoint", checkpoint,
                 "--out", out]
            )
            == 0
        )
        resumed = json.loads((tmp_path / "report.json").read_text())
        assert resumed["counts"]["resumed"] == 2
        assert "recovered" not in capsys.readouterr().out

        # A checkpoint torn mid-record keeps its intact record, and
        # status says what it salvaged.
        text = (tmp_path / "ck.json").read_text()
        (tmp_path / "ck.json").write_text(text[: text.rindex('"metrics"')])
        assert (
            main(["campaign", "status", spec, "--checkpoint", checkpoint])
            == 0
        )
        out = capsys.readouterr().out
        assert "1/3 nodes checkpointed" in out
        assert "checkpoint recovered: 1 intact record(s) salvaged" in out

    def test_example_spec_is_loadable(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "example.json")
        assert main(["campaign", "example", "--out", out]) == 0
        graph = CampaignGraph.from_json(
            json.loads((tmp_path / "example.json").read_text())
        )
        assert "dse" in graph and "pareto" in graph
        assert len(graph.schedule()) == 3

    def test_py_spec_loading(self, tmp_path):
        from repro.cli import _load_campaign_graph

        path = tmp_path / "spec.py"
        path.write_text(
            "from repro.campaign import CampaignGraph\n"
            "def build():\n"
            "    g = CampaignGraph(name='py-spec')\n"
            "    g.evaluate('n', 'test-campaign-seedy', seed=1)\n"
            "    return g\n"
        )
        graph = _load_campaign_graph(str(path))
        assert graph.name == "py-spec"
        with pytest.raises(ValidationError, match="must define"):
            bad = tmp_path / "bad.py"
            bad.write_text("x = 1\n")
            _load_campaign_graph(str(bad))
