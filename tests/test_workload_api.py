"""Conformance suite for the unified Workload / RunResult contract.

Every registered workload must honour the :mod:`repro.core.api`
contract: deterministic evaluation (same seed -> identical canonical
``RunResult``), lossless JSON round-tripping, and a valid declared
space whose example configuration actually evaluates.  The suite
iterates the registry so new adapters are covered the moment they
register.
"""

import dataclasses
import json
import pickle

import pytest

from repro.core.api import (
    RunResult,
    VOLATILE_FIELDS,
    Workload,
    build_run_result,
    ensure_default_workloads,
    example_config,
    get_workload,
    register_workload,
    request_digest,
    workload_names,
)
from repro.core.errors import ValidationError

EXPECTED_WORKLOADS = {
    "axc-htconv",
    "dna-pipeline",
    "dse",
    "hetero-cell",
    "hls",
    "imc-crossbar",
    "sparta",
}


def _all_workloads():
    ensure_default_workloads()
    return [get_workload(name) for name in workload_names()]


def _workload_params():
    return pytest.mark.parametrize(
        "name", sorted(EXPECTED_WORKLOADS), ids=sorted(EXPECTED_WORKLOADS)
    )


class TestRegistry:
    def test_all_seven_subsystems_registered(self):
        assert EXPECTED_WORKLOADS <= set(workload_names())

    def test_get_workload_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown workload"):
            get_workload("no-such-subsystem")

    def test_collision_rejected_without_replace(self):
        class Fake:
            name = "imc-crossbar"

            def space(self):
                return {}

            def evaluate(self, config, *, seed=0, impl=None):
                raise NotImplementedError

        with pytest.raises(ValidationError, match="already registered"):
            register_workload(Fake())

    def test_replace_allows_override_and_restore(self):
        original = get_workload("imc-crossbar")

        class Fake:
            name = "imc-crossbar"

            def space(self):
                return {}

            def evaluate(self, config, *, seed=0, impl=None):
                raise NotImplementedError

        register_workload(Fake(), replace=True)
        try:
            assert get_workload("imc-crossbar").__class__ is Fake
        finally:
            register_workload(original, replace=True)
        assert get_workload("imc-crossbar") is original

    def test_nameless_workload_rejected(self):
        class Nameless:
            def space(self):
                return {}

            def evaluate(self, config, *, seed=0, impl=None):
                raise NotImplementedError

        with pytest.raises(ValidationError, match="name"):
            register_workload(Nameless())

    def test_registered_instances_satisfy_protocol(self):
        for workload in _all_workloads():
            assert isinstance(workload, Workload)
            assert isinstance(workload.name, str) and workload.name


class TestSpaces:
    def test_spaces_declare_nonempty_choice_tuples(self):
        for workload in _all_workloads():
            space = workload.space()
            assert space, f"{workload.name} declares an empty space"
            for param, choices in space.items():
                assert isinstance(param, str)
                assert isinstance(choices, tuple) and choices, (
                    f"{workload.name}.{param} must offer a non-empty "
                    "tuple of choices"
                )

    def test_example_config_is_first_choice_of_each_param(self):
        for workload in _all_workloads():
            config = example_config(workload)
            assert config == {
                name: choices[0]
                for name, choices in workload.space().items()
            }


@_workload_params()
class TestConformance:
    """Per-workload contract checks on the cheap example configuration."""

    def test_same_seed_is_byte_identical(self, name):
        workload = get_workload(name)
        config = example_config(workload)
        first = workload.evaluate(config, seed=3)
        second = workload.evaluate(config, seed=3)
        assert first.canonical_json() == second.canonical_json()
        assert first.same_result(second)

    def test_different_seed_changes_digest(self, name):
        workload = get_workload(name)
        config = example_config(workload)
        first = workload.evaluate(config, seed=0)
        second = workload.evaluate(config, seed=1)
        assert first.config_digest != second.config_digest

    def test_result_shape_and_digest(self, name):
        workload = get_workload(name)
        config = example_config(workload)
        result = workload.evaluate(config, seed=5)
        assert isinstance(result, RunResult)
        assert result.workload == name
        assert result.seed == 5
        assert result.status == "ok" and result.ok
        assert result.wall_time_s >= 0.0
        assert result.metrics, f"{name} returned no metrics"
        assert result.config_digest == request_digest(
            name, config, 5, None
        )

    def test_json_round_trip_is_lossless(self, name):
        workload = get_workload(name)
        result = workload.evaluate(example_config(workload), seed=2)
        payload = result.to_json()
        json.dumps(payload)  # strictly JSON-serializable
        restored = RunResult.from_json(
            json.loads(json.dumps(payload))
        )
        assert restored == result

    def test_metrics_are_json_scalars(self, name):
        workload = get_workload(name)
        result = workload.evaluate(example_config(workload), seed=0)
        for key, value in result.metrics.items():
            assert isinstance(value, (bool, int, float, str)), (
                f"{name}.metrics[{key!r}] is {type(value).__name__}, "
                "not a JSON scalar"
            )
            if isinstance(value, float):
                assert value == value and abs(value) != float("inf"), (
                    f"{name}.metrics[{key!r}] must be finite"
                )


class TestRunResult:
    def _result(self, **overrides):
        base = dict(
            workload="demo",
            metrics={"cycles": 12, "throughput": 3.5},
            seed=0,
            config_digest="abc123",
            wall_time_s=0.25,
        )
        base.update(overrides)
        return RunResult(**base)

    def test_invalid_status_rejected(self):
        with pytest.raises(ValidationError, match="status"):
            self._result(status="pending")

    def test_error_status_requires_message(self):
        with pytest.raises(ValidationError, match="message"):
            self._result(status="error")

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValidationError, match="attempts"):
            self._result(attempts=0)

    def test_from_json_rejects_unknown_fields(self):
        payload = self._result().to_json()
        payload["surprise"] = 1
        with pytest.raises(ValidationError, match="unknown RunResult"):
            RunResult.from_json(payload)

    def test_canonical_json_drops_volatile_fields(self):
        fast = self._result(wall_time_s=0.001, attempts=1)
        slow = self._result(wall_time_s=9.0, attempts=3)
        assert fast.canonical_json() == slow.canonical_json()
        assert fast.same_result(slow)
        decoded = json.loads(fast.canonical_json())
        for field in VOLATILE_FIELDS:
            assert field not in decoded

    def test_canonical_json_sees_metric_changes(self):
        assert not self._result().same_result(
            self._result(metrics={"cycles": 13, "throughput": 3.5})
        )

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self._result().workload = "other"

    def test_legacy_shim_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            self._result().no_such_metric

    def test_build_run_result_digest_matches_request_digest(self):
        result = build_run_result(
            "demo", {"x": 1}, config={"a": 2}, seed=7, impl="numpy"
        )
        assert result.config_digest == request_digest(
            "demo", {"a": 2}, 7, "numpy"
        )

    def test_error_result_carries_type_and_message(self):
        result = build_run_result(
            "demo",
            {},
            config={},
            seed=0,
            status="error",
            error="boom",
            error_type="RuntimeError",
        )
        assert not result.ok
        assert result.error == "boom"
        assert result.error_type == "RuntimeError"


class TestToJsonMatchesAsdict:
    """``to_json`` skips ``dataclasses.asdict`` on plain-scalar metrics;
    its output must stay exactly what ``asdict`` gives."""

    @staticmethod
    def _assert_same_as_asdict(result):
        payload = result.to_json()
        expected = dataclasses.asdict(result)
        assert payload == expected
        assert list(payload) == list(expected)
        assert pickle.dumps(payload) == pickle.dumps(expected)

    @_workload_params()
    def test_every_workload_result(self, name):
        workload = get_workload(name)
        self._assert_same_as_asdict(
            workload.evaluate(example_config(workload), seed=0)
        )

    def test_error_result(self):
        self._assert_same_as_asdict(
            build_run_result(
                "demo", {}, config={}, seed=0, status="error",
                error="boom", error_type="RuntimeError",
            )
        )

    def test_container_metrics_are_copied(self):
        result = RunResult(
            workload="demo",
            metrics={"front": [1.0, 2.0], "by_stage": {"a": 1}, "n": 3},
            seed=None,
            config_digest="abc123",
            wall_time_s=0.5,
        )
        self._assert_same_as_asdict(result)
        payload = result.to_json()
        assert payload["metrics"] is not result.metrics
        assert payload["metrics"]["front"] is not result.metrics["front"]
        assert (
            payload["metrics"]["by_stage"]
            is not result.metrics["by_stage"]
        )
        payload["metrics"]["front"].append(3.0)
        assert result.metrics["front"] == [1.0, 2.0]

    def test_scalar_metrics_dict_is_a_copy(self):
        result = build_run_result("demo", {"x": 1}, config={}, seed=0)
        payload = result.to_json()
        payload["metrics"]["x"] = 2
        assert result.metrics == {"x": 1}


class TestMissingRequiredKey:
    """A config without a parameter the workload has no default for is
    a :class:`ValidationError` naming the workload and the key, not a
    bare ``KeyError``."""

    @pytest.mark.parametrize(
        "name,key",
        [
            ("axc-htconv", "channels"),
            ("axc-htconv", "height"),
            ("axc-htconv", "width"),
            ("dna-pipeline", "payload_bytes"),
            ("sparta", "num_nodes"),
        ],
    )
    def test_missing_key_is_validation_error(self, name, key):
        workload = get_workload(name)
        config = example_config(workload)
        del config[key]
        with pytest.raises(ValidationError) as info:
            workload.evaluate(config, seed=0)
        assert name in str(info.value)
        assert repr(key) in str(info.value)


class TestRequestDigest:
    def test_digest_covers_every_identity_component(self):
        base = request_digest("hls", {"size": 8}, 0, None)
        assert request_digest("dse", {"size": 8}, 0, None) != base
        assert request_digest("hls", {"size": 16}, 0, None) != base
        assert request_digest("hls", {"size": 8}, 1, None) != base
        assert request_digest("hls", {"size": 8}, 0, "numpy") != base

    def test_digest_is_order_insensitive(self):
        assert request_digest(
            "hls", {"a": 1, "b": 2}, 0
        ) == request_digest("hls", {"b": 2, "a": 1}, 0)


class TestSweepGridKwargs:
    """Satellite: `parallel=`/`cache=` now reach sweep_grid too."""

    def test_default_returns_spec_list(self):
        from repro.imc.sweep import CrossbarSweepSpec, sweep_grid

        specs = sweep_grid(4, rows=32, cols=32, num_inputs=2)
        assert len(specs) == 4
        assert all(isinstance(s, CrossbarSweepSpec) for s in specs)

    def test_evaluate_flag_returns_records(self):
        from repro.imc.sweep import sweep_grid

        records = sweep_grid(2, rows=32, cols=32, num_inputs=2,
                             evaluate=True)
        assert all(isinstance(r, dict) and "rms_error" in r
                   for r in records)

    def test_cache_kwarg_implies_evaluation_and_memoizes(self):
        from repro.exec import ResultCache
        from repro.imc.sweep import sweep_grid

        cache = ResultCache()
        cold = sweep_grid(3, rows=32, cols=32, num_inputs=2, cache=cache)
        warm = sweep_grid(3, rows=32, cols=32, num_inputs=2, cache=cache)
        assert warm == cold
        assert cache.stats()["hits"] >= 3

    def test_parallel_kwarg_matches_serial(self):
        from repro.imc.sweep import sweep_grid

        serial = sweep_grid(3, rows=32, cols=32, num_inputs=2,
                            evaluate=True)
        threaded = sweep_grid(3, rows=32, cols=32, num_inputs=2,
                              parallel=2)
        assert serial == threaded
