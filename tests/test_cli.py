"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    @pytest.mark.parametrize(
        "artifact,expect",
        [
            ("fig1", "platform class"),
            ("fig2", "von Neumann"),
            ("taxonomy", "von Neumann"),
            ("fig7", "power band"),
            ("table1", "HTCONV"),
            ("survey-csv", "peak_tops"),
        ],
    )
    def test_artifacts_print_tables(self, artifact, expect, capsys):
        assert main([artifact]) == 0
        out = capsys.readouterr().out
        assert expect in out
        assert len(out.splitlines()) > 3

    def test_scf_artifact(self, capsys):
        assert main(["scf"]) == 0
        out = capsys.readouterr().out
        assert "SCF scale-up" in out
        assert "64" in out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code != 0

    def test_no_arguments_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_survey_csv_round_trips(self, capsys):
        from repro.survey import load_dataset
        from repro.survey.io import from_csv

        main(["survey-csv"])
        out = capsys.readouterr().out
        assert from_csv(out) == load_dataset()


class TestExecCli:
    def test_exec_reports_identical_results(self, capsys):
        assert main(["exec", "--workers", "2", "--cells", "4",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "results identical across serial/parallel/cached passes" \
            in out
        assert "parallel (warm)" in out


class TestServeCli:
    def test_synthetic_load_mode(self, capsys):
        assert main([
            "serve", "--workload", "hls", "--num-requests", "8",
            "--batch-size", "4", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "synthetic load" in out
        assert "'hls'" in out
        assert "batches:" in out
        assert "deduped" in out

    def test_request_file_mode(self, tmp_path, capsys):
        import json

        requests = [
            {"workload": "hls", "config": {"kernel": "dot", "size": 8}},
            {"workload": "sparta", "config": {"num_nodes": 48},
             "priority": "high", "seed": 3},
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(requests))
        out_path = tmp_path / "snapshot.json"
        assert main([
            "serve", "--requests", str(path), "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 request(s)" in out
        assert "hls" in out and "sparta" in out
        snapshot = json.loads(out_path.read_text())
        assert snapshot["requests"]["completed"] == 2
        assert "latency_s" in snapshot

    def test_bad_request_file_rejected(self, tmp_path):
        from repro.core.errors import ValidationError

        path = tmp_path / "bad.json"
        path.write_text('{"workload": "hls"}')
        with pytest.raises(ValidationError, match="array"):
            main(["serve", "--requests", str(path)])


class TestCapacityCli:
    def test_capacity_from_measured_numbers(self, capsys):
        assert main([
            "capacity", "--shard-rps", "100", "--shard-p99-ms", "50",
            "--target-p99-ms", "100", "--offered-rps", "250",
            "--overhead-cost", "0",
        ]) == 0
        out = capsys.readouterr().out
        # The hand-computed case: 5 shards, $2.50/h, $2.78 per 1M.
        row = [line for line in out.splitlines()
               if line.startswith("250")]
        assert row and "| 5" in row[0]
        assert "2.5" in row[0]
        assert "2.778" in row[0]

    def test_capacity_writes_report(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "capacity.json"
        assert main([
            "capacity", "--shard-rps", "80", "--shard-p99-ms", "40",
            "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        assert set(report) == {"model", "cost", "target_p99_s", "plans"}
        assert report["model"]["per_shard_rps"] == 80.0

    def test_capacity_from_scale_report(self, tmp_path, capsys):
        import json

        bench = tmp_path / "BENCH_scale.json"
        bench.write_text(json.dumps({
            "capacity": {
                "model": {
                    "per_shard_rps": 100.0,
                    "service_p99_s": 0.05,
                    "efficiency": {"1": 1.0, "2": 0.9},
                },
            },
        }))
        assert main([
            "capacity", "--from-report", str(bench),
            "--offered-rps", "50",
        ]) == 0
        assert "100.0 rps/shard" in capsys.readouterr().out

    def test_capacity_requires_a_model_source(self):
        from repro.core.errors import ValidationError

        with pytest.raises(ValidationError, match="--shard-rps"):
            main(["capacity"])

    def test_serve_capacity_report_footer(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "snapshot.json"
        assert main([
            "serve", "--num-requests", "8", "--pool", "4",
            "--capacity-report", "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "capacity plan" in out
        snapshot = json.loads(out_path.read_text())
        assert "capacity" in snapshot
        assert snapshot["capacity"]["plans"]
