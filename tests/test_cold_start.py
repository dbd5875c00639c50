"""Cold start: a process imports only what it runs.

The registry knows the seven built-in names without importing their
adapters, so admission, ``workload_names()`` and unknown-name rejection
import nothing, and a process shard that only serves cache hits never
imports a subsystem (nor ``networkx``, which only SPARTA's graph
builder needs).  The infrastructure packages export their names lazily
and cache digests check numpy types only once numpy is loaded, so that
shard also imports no numpy and no serving module it never calls --
with every digest, and so every stored cache key, unchanged.  Each
check that depends on what a process has imported runs in a fresh
interpreter, so ``sys.modules`` starts clean.
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


#: Modules a shard that only serves cache hits must not import.
_NOT_ON_HIT_PATH = [
    "numpy",
    "repro.serve.capacity", "repro.serve.cluster", "repro.serve.loadgen",
    "repro.obs.critical", "repro.obs.recorder", "repro.obs.report",
    "repro.obs.slo",
    "repro.resilience.chaos", "repro.resilience.faults",
    "repro.resilience.checkpoint",
    "repro.core.fixedpoint", "repro.core.pareto", "repro.core.tables",
    "repro.core.metrics", "repro.core.rng",
]

#: The packages whose ``__init__`` exports its names lazily.
_LAZY_PACKAGES = ["core", "exec", "obs", "resilience", "serve"]

#: ``config_digest`` of each input built by ``_DIGEST_INPUTS``, as the
#: code that imported numpy eagerly computed them.
_PINNED_DIGESTS = {
    "dataclass":
        "7748c66cf46169716dad6a4cab6ca3ea5fc3425dda24b2d3377a09ff2f454f53",
    "enum":
        "2ab938067826aa6d3f556864ad9ffed95c3ca1a13a618653b9952b66e7ee775b",
    "ndarray":
        "ab35013b00d9e0f9fb8696536abfa913a9df38ef61b2e1d5391df3ff5f025896",
    "nested":
        "777426577fd5b4c099a43e5d7f38f004a2371a6bd6682a72171237f4e4d0c06d",
    "numpy_scalars":
        "14e2dec3a69cf720061f6d4df9f6ddaeae78bf0e1157727731b2a3bc8eab0409",
    "plain":
        "949a365fc39193debe049469b65de0776f9e453a73b184bdc3d6f777a573de44",
}

#: Defines ``plain()`` (inputs that need no numpy) and ``with_numpy()``.
_DIGEST_INPUTS = """
import dataclasses, enum
from repro.exec.cache import config_digest

class Color(enum.Enum):
    RED = 1

@dataclasses.dataclass
class Point:
    x: int
    y: float

def plain():
    return {
        "plain": {"num_nodes": 48, "density": 0.25, "name": "bfs",
                  "flag": True, "none": None, "neg": -0.0},
        "dataclass": Point(2, 0.5),
        "enum": {"color": Color.RED},
        "nested": [1, [2.0, [-0.0, "x"]], (3, 4), {"b": [5], "a": {}}],
    }

def with_numpy():
    import numpy as np
    return {
        "numpy_scalars": {"i": np.int64(3), "f": np.float32(0.5),
                          "b": np.bool_(True), "u": np.uint8(7)},
        "ndarray": np.arange(6, dtype=np.int32).reshape(2, 3),
    }

def digests(inputs):
    return {name: config_digest(value) for name, value in inputs.items()}
"""

#: A ``ResultCache`` store written by the code that imported numpy
#: eagerly: three requests' records under their digests.
_OLD_STORE = os.path.join(
    os.path.dirname(__file__), "data", "result_cache_961a44c.json"
)


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
            digest = sys.argv[4]
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
            parent.send_bytes(_dumps(("submit", 1, request, digest)))
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
                "serving": sorted(
                    m for m in json.loads(sys.argv[3]) if m in sys.modules
                ),
            }))
        """, cache, json.dumps(request.to_json()),
            json.dumps(_NOT_ON_HIT_PATH), request.digest)
        assert out["ready"] == "ready" and out["joined"]
        assert out["done"] == ["done", 0, 0, 1]
        served = RunResult.from_json(out["record"])
        assert served.canonical_json() == expected.canonical_json()
        assert out["hits"] == 1 and out["computed"] == 0
        assert out["loaded"] == []
        assert out["serving"] == []


class TestLazyPackageExports:
    def test_every_exported_name_resolves(self):
        out = _run("""
            import importlib
            missing, starred, listed = [], {}, {}
            for short in json.loads(sys.argv[1]):
                package = importlib.import_module("repro." + short)
                for name in package.__all__:
                    if getattr(package, name, None) is None:
                        missing.append(f"{short}.{name}")
                scope = {}
                exec(f"from repro.{short} import *", scope)
                starred[short] = sorted(
                    set(package.__all__) - set(scope)
                )
                listed[short] = sorted(
                    set(package.__all__) - set(dir(package))
                )
            print(json.dumps({"missing": missing, "starred": starred,
                              "listed": listed}))
        """, json.dumps(_LAZY_PACKAGES))
        assert out["missing"] == []
        assert all(left == [] for left in out["starred"].values())
        assert all(left == [] for left in out["listed"].values())

    def test_package_import_loads_no_submodule(self):
        out = _run("""
            import importlib
            before = set(sys.modules)
            for short in json.loads(sys.argv[1]):
                importlib.import_module("repro." + short)
            print(json.dumps({
                "numpy": "numpy" in sys.modules,
                "new": sorted(m for m in set(sys.modules) - before
                              if m.startswith("repro.")),
            }))
        """, json.dumps(_LAZY_PACKAGES))
        assert out["numpy"] is False
        # ``repro.obs`` keeps its pillars eager; they need only
        # ``repro.core.errors``.
        assert set(out["new"]) == {
            "repro._lazy", "repro.core", "repro.core.errors", "repro.exec",
            "repro.obs", "repro.obs.envelope", "repro.obs.ledger",
            "repro.obs.metrics", "repro.obs.stats", "repro.obs.trace",
            "repro.resilience", "repro.serve",
        }

    def test_unknown_name_is_an_attribute_error(self):
        import repro.serve

        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.serve.nope


class TestDigestWithoutNumpy:
    def test_digests_match_with_and_without_numpy_first(self):
        script = _DIGEST_INPUTS + textwrap.dedent("""
            numpy_first = sys.argv[1] == "1"
            if numpy_first:
                import numpy
            out = digests(plain())
            untouched = "numpy" not in sys.modules
            out.update(digests(with_numpy()))
            again = digests(plain())
            print(json.dumps({"digests": out, "untouched": untouched,
                              "stable": again == {k: out[k] for k in again}}))
        """)
        lazy = _run(script, "0")
        eager = _run(script, "1")
        assert lazy["untouched"] and not eager["untouched"]
        assert lazy["stable"] and eager["stable"]
        assert lazy["digests"] == _PINNED_DIGESTS
        assert eager["digests"] == _PINNED_DIGESTS

    def test_digest_while_another_thread_imports_numpy(self):
        out = _run(_DIGEST_INPUTS + textwrap.dedent("""
            import threading
            errors, rounds = [], 0
            importer = threading.Thread(target=lambda: __import__("numpy"))
            importer.start()
            while importer.is_alive() or rounds < 50:
                try:
                    assert digests(plain()) == json.loads(sys.argv[1])
                except Exception as exc:
                    errors.append(repr(exc))
                rounds += 1
            importer.join(60)
            print(json.dumps({"errors": errors[:3], "rounds": rounds,
                              "joined": not importer.is_alive()}))
        """), json.dumps({k: v for k, v in _PINNED_DIGESTS.items()
                         if k in ("plain", "dataclass", "enum", "nested")}))
        assert out["errors"] == [] and out["joined"]

    def test_store_written_before_lazy_numpy_serves_all_hits(
        self, tmp_path
    ):
        cache = str(tmp_path / "store.json")
        with open(_OLD_STORE) as fh:
            stored = json.load(fh)
        with open(cache, "w") as fh:
            json.dump(stored, fh)
        requests = [
            EvalRequest("hls", {"kernel": "dot", "size": 8}, seed=0),
            EvalRequest("sparta", {"num_nodes": 48}, seed=3),
            EvalRequest(
                "imc-crossbar", {"rows": 16, "cols": 16, "num_inputs": 2},
                seed=1,
            ),
        ]
        assert sorted(r.digest for r in requests) == sorted(stored)
        with EvaluationService(cache=cache) as service:
            results = [
                service.submit_request(r).result(timeout=60)
                for r in requests
            ]
            snapshot = service.snapshot()
        assert snapshot["cache"]["hits"] == 3
        assert snapshot["evaluations"]["computed"] == 0
        for request, result in zip(requests, results):
            assert result.to_json() == stored[request.digest]
