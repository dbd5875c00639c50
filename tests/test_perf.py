"""Tests for profiling as a view over :mod:`repro.obs`: ``@profiled``
kernel spans, the cache timing histograms, and the ``repro profile``
CLI that renders both stores."""

import pytest

from repro import obs
from repro.obs.report import render_profile, span_path_totals
from repro.obs.trace import derive_trace_id, get_tracer, profiled


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    get_tracer().reset()
    obs.get_metrics().reset()
    yield
    obs.disable()
    get_tracer().reset()
    obs.get_metrics().reset()


def _traced_span_names(fn, *args):
    """Run ``fn(*args)`` under a root span with tracing on; returns the
    names of every recorded span."""
    tracer = obs.enable_tracing()
    root = tracer.start_span(
        "root", trace_id=derive_trace_id("perf-test"), parent_id=""
    )
    with tracer.activate(root.context):
        fn(*args)
    tracer.end_span(root)
    return [span["name"] for span in tracer.spans()]


class TestProfiledDecorator:
    def test_records_under_default_label(self):
        @profiled()
        def sample():
            return 42

        label = sample.__profiled_name__
        assert label.endswith("sample")
        assert _traced_span_names(sample).count(label) == 1

    def test_explicit_label(self):
        @profiled("custom.label")
        def sample():
            return 1

        assert "custom.label" in _traced_span_names(sample)

    def test_disabled_passthrough(self):
        @profiled("x")
        def sample():
            return "ok"

        assert sample() == "ok"
        assert sample.__wrapped__() == "ok"
        assert get_tracer().spans() == []


class TestKernelInstrumentation:
    def test_kernels_report_when_enabled(self):
        from repro.dna.editdistance import levenshtein_banded
        from repro.hls.ir import OpKind
        from repro.hls.kernels import _dot_body
        from repro.hls.scheduling import schedule_list

        def run():
            levenshtein_banded("ACGT", "ACGA", band=2)
            schedule_list(_dot_body(), {OpKind.MUL: 1})

        names = _traced_span_names(run)
        assert names.count("dna.levenshtein_banded") == 1
        assert names.count("hls.schedule_list") == 1

    def test_cache_hit_miss_timers(self):
        from repro.exec import ResultCache

        cache = ResultCache()
        cache.put("off", 0)
        cache.get("off")
        assert obs.get_metrics().snapshot()["histograms"] == {}
        obs.enable_metrics()
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.get("absent") is None
        histograms = obs.get_metrics().snapshot()["histograms"]
        assert histograms["cache.put"]["count"] == 1
        assert histograms["cache.get.hit"]["count"] == 1
        assert histograms["cache.get.miss"]["count"] == 1

    def test_evaluator_map_span_and_cache_histograms(self):
        from repro.exec import ParallelEvaluator, ResultCache

        obs.enable_metrics()
        engine = ParallelEvaluator(
            max_workers=1, mode="serial", cache=ResultCache()
        )
        names = _traced_span_names(
            engine.map, lambda x: x * 2, [1, 2], ["a", "b"]
        )
        assert names.count("exec.map") == 1
        histograms = obs.get_metrics().snapshot()["histograms"]
        assert histograms["cache.get.miss"]["count"] == 2
        assert histograms["cache.put"]["count"] == 2


class TestRenderProfile:
    SPANS = [
        {"trace_id": "t", "span_id": "r", "parent_id": "", "name": "demo",
         "duration_s": 1.0},
        {"trace_id": "t", "span_id": "a", "parent_id": "r",
         "name": "kernel", "duration_s": 0.25},
        {"trace_id": "t", "span_id": "b", "parent_id": "r",
         "name": "kernel", "duration_s": 0.5},
    ]

    def test_aggregates_span_paths_then_lists_histograms_and_counters(
        self,
    ):
        totals = span_path_totals(self.SPANS)
        assert list(totals) == ["demo", "demo/kernel"]
        assert totals["demo/kernel"] == {
            "calls": 2, "total_s": 0.75, "max_s": 0.5, "mean_s": 0.375,
        }
        registry = obs.MetricsRegistry(enabled=True)
        registry.observe("cache.get.hit", 0.002)
        registry.inc("shm.bytes_leased", 8388608)
        text = render_profile(self.SPANS, registry.snapshot())
        assert text.startswith("profile: repro")
        assert "\n  kernel " in text
        assert "cache.get.hit" in text
        assert "shm.bytes_leased: 8388608" in text


class TestProfileCli:
    def test_profile_all_demos(self, capsys):
        from repro.cli import main

        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "profile: repro" in out
        for label in (
            "imc.mvm_batch",
            "dna.levenshtein_banded",
            "axc.htconv_x2",
            "sparta.run",
            "hls.schedule_list",
            "cache.get.hit",
        ):
            assert label in out

    def test_profile_single_demo(self, capsys):
        from repro.cli import main

        assert main(["profile", "hls"]) == 0
        out = capsys.readouterr().out
        assert "hls.schedule_list" in out
        assert "sparta.run" not in out

    def test_profile_leaves_tracer_and_metrics_disabled(self, capsys):
        from repro.cli import main

        main(["profile", "hls"])
        capsys.readouterr()
        assert not get_tracer().enabled
        assert not obs.get_metrics().enabled

    def test_failing_demo_still_disables_both(self, monkeypatch):
        from repro import cli

        def broken():
            raise RuntimeError("demo failed")

        monkeypatch.setitem(cli._PROFILE_DEMOS, "hls", broken)
        with pytest.raises(RuntimeError):
            cli.main(["profile", "hls"])
        assert not get_tracer().enabled
        assert not obs.get_metrics().enabled

    def test_demo_requires_profile(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fig1", "hls"])

    def test_unknown_demo_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["profile", "nope"])
