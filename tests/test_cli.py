"""Tests for the command-line interface."""

import re
import shlex
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser, main


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

    def test_bad_request_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"workload": "hls"}')
        assert main(["serve", "--requests", str(path)]) == 1
        assert "array" in capsys.readouterr().err


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

    def test_capacity_requires_a_model_source(self, capsys):
        assert main(["capacity"]) == 1
        assert "--shard-rps" in capsys.readouterr().err

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


class TestCommandTree:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--shards", "2"],
            ["taxonomy", "--out", "x.json"],
            ["table1", "--seed", "1"],
            ["chaos", "--backend", "process"],
            ["chaos", "--trace-dir", "d"],
            ["capacity", "--workers", "2"],
            ["capacity", "--trace-dir", "d"],
            ["exec", "--rate", "1"],
            ["serve", "--kills", "1"],
            ["profile", "--workers", "2"],
            ["campaign", "status", "s.json", "--checkpoint", "c",
             "--workers", "2"],
            ["obs", "summary", "--seed", "1"],
            ["--workers", "2", "campaign"],
            ["--seed", "1", "obs"],
        ],
        ids=" ".join,
    )
    def test_flag_the_verb_does_not_read_is_a_usage_error(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--backend", "process"], ["--shards", "2"], ["--workload", "hls"],
         ["--num-requests", "9"], ["--pool", "2"], ["--seed", "0"],
         ["--rate", "5"]],
        ids=" ".join,
    )
    def test_requests_file_rejects_the_flags_it_ignores(
        self, flag, tmp_path, capsys
    ):
        path = str(tmp_path / "requests.json")
        for argv in (["serve", "--requests", path] + flag,
                     ["serve"] + flag + ["--requests", path]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err
            assert f"cannot be combined with {flag[0]}" in err

    def test_help_lists_every_verb(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = {
            name
            for pair in re.findall(
                r"^    ([\w-]+)(?: \(([\w-]+)\))?",
                capsys.readouterr().out, re.M,
            )
            for name in pair
        }
        assert listed >= {
            "fig1", "fig2", "taxonomy", "fig7", "table1", "scf",
            "survey-csv", "faults", "exec", "profile", "serve", "chaos",
            "capacity", "campaign", "obs",
        }


def _assert_observability_off():
    assert not obs.get_tracer().enabled
    assert not obs.get_ledger().enabled
    assert not obs.get_metrics().enabled
    assert not [
        t for t in threading.enumerate() if t.name == "flight-recorder"
    ]


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--batch-size", "0"],
            ["serve", "--requests", "{tmp}/nonexistent.json"],
            ["campaign", "run", "{tmp}/bad.json"],
            ["campaign", "run", "{tmp}/list.json"],
            ["capacity", "--from-report", "{tmp}/bad.json"],
            ["capacity", "--from-report", "{tmp}/list.json"],
            ["capacity"],
            ["campaign", "run", "{tmp}/deps.json"],
            ["obs", "slo", "--trace-dir", "{tmp}", "--spec",
             "{tmp}/bad.json"],
            ["obs", "slo", "--trace-dir", "{tmp}", "--spec",
             "{tmp}/slo.json"],
        ],
        ids=" ".join,
    )
    def test_bad_input_is_one_error_line(self, argv, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "list.json").write_text("[]")
        (tmp_path / "deps.json").write_text(
            '{"nodes": [{"name": "a", "workload": "hls", "deps": [[1]]}]}'
        )
        (tmp_path / "slo.json").write_text("[{}]")
        (tmp_path / "flight.jsonl").write_text("")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}")
        assert ": error: " in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_failing_traced_serve_turns_observability_off(
        self, tmp_path, capsys
    ):
        assert main([
            "serve", "--trace-dir", str(tmp_path / "obs"),
            "--batch-size", "0",
        ]) == 1
        _assert_observability_off()

    def test_failing_traced_campaign_turns_observability_off(
        self, tmp_path, capsys
    ):
        spec = str(tmp_path / "spec.json")
        assert main(["campaign", "example", "--out", spec]) == 0
        assert main([
            "campaign", "run", spec, "--serve", "--batch-size", "0",
            "--trace-dir", str(tmp_path / "obs"),
        ]) == 1
        assert "batch_size" in capsys.readouterr().err
        _assert_observability_off()


def _readme_commands():
    """Every ``python -m repro ...`` command README.md shows, from
    fenced blocks (``\\`` continuations joined) and inline code."""
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            _, found, command = line.partition("python -m repro ")
            if found:
                commands.append(command)
    commands += [
        command.replace("\n", " ")
        for command in re.findall(r"`python -m repro ([^`]*)`", text)
    ]
    return commands


class TestReadmeCommands:
    COMMANDS = _readme_commands()

    def test_readme_shows_the_cli(self):
        assert len(self.COMMANDS) >= 25

    @pytest.mark.parametrize("command", COMMANDS)
    def test_documented_command_parses(self, command):
        argv = shlex.split(command, comments=True)
        redirect = [i for i, arg in enumerate(argv) if arg.startswith(">")]
        build_parser().parse_args(argv[: redirect[0]] if redirect else argv)
