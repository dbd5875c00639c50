"""Cold start: built-in workloads load by name on first use.

The registry knows the seven built-in names without importing their
adapters, so admission, ``workload_names()`` and unknown-name rejection
import nothing, and a process shard that only serves cache hits never
imports a subsystem (nor ``networkx``, which only SPARTA's graph
builder needs).  Each check that depends on what a process has imported
runs in a fresh interpreter, so ``sys.modules`` starts clean.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.api import (
    RunResult,
    check_workload,
    get_workload,
    register_workload,
    registry_generation,
    workload_names,
)
from repro.core.errors import ValidationError
from repro.serve import EvalRequest, EvaluationService

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Prints the subsystem modules (and ``networkx``) a script has loaded.
_LOADED = """
def _loaded():
    subsystems = {"hls", "dse", "imc", "sparta", "axc", "dna", "hetero"}
    return sorted(
        m for m in sys.modules
        if m.split(".")[0] == "networkx"
        or (m.startswith("repro.") and m.split(".")[1] in subsystems)
    )
"""


def _run(script: str, *args: str) -> dict:
    """Run *script* in a fresh interpreter; it prints one JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = "import json, sys\n" + _LOADED + textwrap.dedent(script)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestRegistryNames:
    def test_names_and_admission_need_no_import(self):
        out = _run("""
            from repro.core.api import check_workload, workload_names
            names = workload_names()
            check_workload("sparta")
            print(json.dumps({"names": names, "loaded": _loaded()}))
        """)
        assert set(out["names"]) == {
            "axc-htconv", "dna-pipeline", "dse", "hetero-cell", "hls",
            "imc-crossbar", "sparta",
        }
        assert out["loaded"] == []

    def test_get_workload_imports_only_that_adapter(self):
        out = _run("""
            from repro.core.api import get_workload
            get_workload("axc-htconv")
            print(json.dumps({"loaded": _loaded()}))
        """)
        assert out["loaded"]
        assert all(m.startswith("repro.axc") for m in out["loaded"])

    def test_sparta_kernels_import_without_networkx(self):
        out = _run("""
            import repro.sparta.kernels as kernels
            before = "networkx" in sys.modules
            graph = kernels.random_graph(16, 3.0, seed=1)
            print(json.dumps({
                "before": before,
                "after": "networkx" in sys.modules,
                "nodes": graph.number_of_nodes(),
            }))
        """)
        assert out == {"before": False, "after": True, "nodes": 16}

    def test_unknown_name_rejected_in_process(self):
        with pytest.raises(ValidationError, match="unknown workload"):
            check_workload("no-such-subsystem")
        assert "no-such-subsystem" not in workload_names()


class TestBuiltinLoadIsNotARegistryChange:
    def test_loading_builtins_keeps_the_generation(self):
        out = _run("""
            from repro.core.api import (
                ensure_default_workloads, get_workload, registry_generation,
            )
            before = registry_generation()
            get_workload("hls")
            ensure_default_workloads()
            print(json.dumps({"before": before,
                              "after": registry_generation()}))
        """)
        assert out["before"] == out["after"]

    def test_pool_forked_before_first_dse_load_is_kept(self):
        """A forked worker resolves a built-in by name itself, so the
        pool stays valid when the parent first loads ``dse``; and a
        worker imports only the adapters its tasks use."""
        out = _run("""
            from repro.core.api import RunResult, get_workload, example_config
            from repro.exec import ParallelEvaluator
            from repro.exec.requests import evaluate_task

            def tasks(name, config):
                return [(name, config, seed, None, None, None, False, None)
                        for seed in (0, 1)]

            def worker_loaded(_):
                return _loaded()

            engine = ParallelEvaluator(max_workers=2, mode="process")
            hls = {"kernel": "dot", "size": 8}
            engine.map(evaluate_task, tasks("hls", hls))
            pool = engine._executors["process"]
            workers = engine.map(worker_loaded, range(4))
            dse_loaded = "repro.dse.workload" in sys.modules
            dse = get_workload("dse")
            config = example_config(dse)
            records = engine.map(evaluate_task, tasks("dse", config))
            same_pool = engine._executors["process"] is pool
            engine.close()
            identical = [
                RunResult.from_json(record).canonical_json()
                == dse.evaluate(config, seed=seed).canonical_json()
                for record, seed in zip(records, (0, 1))
            ]
            print(json.dumps({"dse_loaded": dse_loaded,
                              "same_pool": same_pool,
                              "identical": identical,
                              "workers": workers}))
        """)
        workers = out.pop("workers")
        assert out == {"dse_loaded": False, "same_pool": True,
                       "identical": [True, True]}
        assert all(m.startswith("repro.hls") for w in workers for m in w)


class TestOverrideOfUnloadedBuiltin:
    def test_replace_survives_the_adapter_import(self):
        out = _run("""
            from repro.core.api import (
                ensure_default_workloads, get_workload,
                register_workload, registry_generation, workload_names,
            )

            class Fake:
                name = "hls"

                def space(self):
                    return {}

                def evaluate(self, config, *, seed=0, impl=None):
                    raise NotImplementedError

            fake = Fake()
            before = registry_generation()
            register_workload(fake, replace=True)
            bumped = registry_generation()
            names = workload_names()
            ensure_default_workloads()
            print(json.dumps({
                "bumped": bumped - before,
                "kept": get_workload("hls") is fake,
                "adapter_loaded": "repro.hls.workload" in sys.modules,
                "after": registry_generation() - bumped,
                "names": names == workload_names(),
            }))
        """)
        assert out == {"bumped": 1, "kept": True, "adapter_loaded": True,
                       "after": 0, "names": True}

    def test_builtin_name_taken_before_its_adapter_loads(self):
        out = _run("""
            from repro.core.api import register_workload
            from repro.core.errors import ValidationError

            class Fake:
                name = "imc-crossbar"

            try:
                register_workload(Fake())
                error = None
            except ValidationError as exc:
                error = str(exc)
            print(json.dumps({"error": error, "loaded": _loaded()}))
        """)
        assert "already registered" in out["error"]
        assert out["loaded"] == []

    def test_reregistering_the_builtin_instance_is_a_no_op(self):
        workload = get_workload("hls")
        generation = registry_generation()
        register_workload(workload)
        assert registry_generation() == generation
        assert get_workload("hls") is workload


class TestHitServingShardImportsNoSubsystem:
    def test_unknown_name_rejected_at_admission_without_import(self):
        out = _run("""
            from repro.core.errors import ValidationError
            from repro.serve import EvalRequest, EvaluationService
            from repro.serve.cluster import ShardCluster

            request = EvalRequest("no-such-subsystem", {})
            errors = []
            with EvaluationService() as service:
                try:
                    service.submit_request(request)
                except ValidationError as exc:
                    errors.append(str(exc))
            cluster = ShardCluster(num_shards=1)
            try:
                cluster.submit_request(request)
            except ValidationError as exc:
                errors.append(str(exc))
            finally:
                cluster.shutdown()
            print(json.dumps({"errors": errors, "loaded": _loaded()}))
        """)
        assert len(out["errors"]) == 2
        assert all(e.startswith("unknown workload 'no-such-subsystem'")
                   for e in out["errors"])
        assert out["loaded"] == []

    def test_warm_hit_from_disk_cache_loads_no_subsystem(self, tmp_path):
        """Run the real shard worker loop (on a thread, over a pipe) in
        a fresh interpreter, serve one hit from a warmed on-disk cache,
        and look at what that interpreter imported."""
        cache = str(tmp_path / "shard-cache.json")
        request = EvalRequest("sparta", {"num_nodes": 48}, seed=3)
        with EvaluationService(cache=cache) as service:
            expected = service.submit_request(request).result(timeout=60)
        assert expected.ok
        out = _run("""
            import threading
            from multiprocessing import Pipe
            from repro.serve.procshard import (
                _dumps, _shard_worker_main, validate_process_spec,
            )

            cache, request = sys.argv[1], json.loads(sys.argv[2])
            spec = validate_process_spec({
                "batch_size": 8, "batch_wait_s": 0.005, "max_queue": 16,
                "cache": cache,
            })
            parent, child = Pipe()
            worker = threading.Thread(
                target=_shard_worker_main,
                args=(0, 0, child, spec, False, False, False, 0.05),
            )
            worker.start()
            ready = parent.recv()
            parent.send_bytes(_dumps(("submit", 1, request)))
            done = parent.recv()
            parent.send_bytes(_dumps(("stop", False)))
            stopped = parent.recv()
            worker.join(30)
            snapshot = stopped[3]
            print(json.dumps({
                "ready": ready[0],
                "done": done[:4],
                "record": done[4],
                "joined": not worker.is_alive(),
                "hits": snapshot["cache"]["hits"],
                "computed": snapshot["evaluations"]["computed"],
                "loaded": _loaded(),
            }))
        """, cache, json.dumps(request.to_json()))
        assert out["ready"] == "ready" and out["joined"]
        assert out["done"] == ["done", 0, 0, 1]
        served = RunResult.from_json(out["record"])
        assert served.canonical_json() == expected.canonical_json()
        assert out["hits"] == 1 and out["computed"] == 0
        assert out["loaded"] == []
