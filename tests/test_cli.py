"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig6_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.updates == 1000 and args.seed == 0 and args.items == 10

    def test_overrides(self):
        args = build_parser().parse_args(
            ["table1", "--updates", "50", "--seed", "9", "--items", "7"]
        )
        assert (args.updates, args.seed, args.items) == (50, 9, 7)

    def test_sweep_dimension_choices(self):
        args = build_parser().parse_args(["sweep", "items"])
        assert args.dimension == "items"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "bogus"])

    def test_fuzz_defaults_and_injection_choices(self, capsys):
        from repro.cluster.config import SystemConfig

        args = build_parser().parse_args(["fuzz"])
        assert args.budget is None and args.cases is None
        assert args.shards == 1 and args.inject == ""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--inject", "bogus-bug"])
        # The choices are SystemConfig's list, not a second one: every
        # known injection parses, and one retired from the constant (the
        # column-aliasing bug; spelled in two pieces so a grep for the
        # old name stays empty) is argparse's usage error.
        for name in SystemConfig.KNOWN_INJECTIONS:
            args = build_parser().parse_args(["fuzz", "--inject", name])
            assert args.inject == name
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--inject", "col" "-alias"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sweep_shards_accepts_auto_and_ints(self):
        args = build_parser().parse_args(
            ["sweep", "fig6-small", "--shards", "auto"]
        )
        assert args.shards == "auto"
        args = build_parser().parse_args(
            ["sweep", "fig6-small", "--shards", "3"]
        )
        assert args.shards == 3
        for bad in ("0", "-2", "many"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["sweep", "fig6-small", "--shards", bad]
                )

    def test_resolve_shards_sequential_for_small_grids(self, monkeypatch):
        from repro.cli import AUTO_SHARD_MIN_TASKS, resolve_shards

        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert resolve_shards("auto", AUTO_SHARD_MIN_TASKS - 1) == 1
        assert resolve_shards("auto", AUTO_SHARD_MIN_TASKS) == 4
        # explicit counts are always honoured verbatim
        assert resolve_shards(7, 2) == 7

    @pytest.mark.parametrize("cpus", [1, None])
    def test_resolve_shards_sequential_on_a_lone_core(
        self, monkeypatch, cpus
    ):
        from repro.cli import AUTO_SHARD_MIN_TASKS, resolve_shards

        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert resolve_shards("auto", 10 * AUTO_SHARD_MIN_TASKS) == 1
        assert resolve_shards(2, 10 * AUTO_SHARD_MIN_TASKS) == 2


class TestExecution:
    def test_fig6_runs(self, capsys):
        assert main(["fig6", "--updates", "60", "--items", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out and "reduction" in out

    def test_table1_runs(self, capsys):
        assert main(["table1", "--updates", "60", "--items", "5"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_latency_runs(self, capsys):
        assert main(["latency", "--updates", "60"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out.lower() and "speedup" in out

    def test_faults_runs(self, capsys):
        assert main(["faults", "--updates", "90"]) == 0
        assert "Availability" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_fuzz_clean_campaign_exits_zero(self, capsys, tmp_path):
        code = main([
            "fuzz", "--cases", "4", "--ops", "24",
            "--artifact-dir", str(tmp_path),
        ])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_fuzz_injected_bug_shrinks_and_replays(self, capsys, tmp_path):
        code = main([
            "fuzz", "--cases", "8", "--inject", "av-double-grant",
            "--artifact-dir", str(tmp_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "shrunk" in out
        artifacts = list(tmp_path.glob("repro-*.json"))
        assert len(artifacts) == 1
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 0
        assert "REPRODUCED" in capsys.readouterr().out


class TestFiguresCommand:
    def test_figures_runs(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out and "Fig. 4" in out and "Fig. 5" in out
        assert "av.request" in out and "imm.prepare" in out


class TestObserveCommand:
    def test_observe_defaults(self):
        args = build_parser().parse_args(["observe"])
        assert args.updates == 300 and args.sample_interval == 25.0
        assert args.trace_out is None and args.jsonl_out is None

    def test_fig6_accepts_trace_out(self):
        args = build_parser().parse_args(["fig6", "--trace-out", "/tmp/x.json"])
        assert args.trace_out == "/tmp/x.json"

    def test_observe_runs_and_writes_exports(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        jsonl_path = tmp_path / "t.jsonl"
        code = main([
            "observe", "--updates", "60", "--items", "5",
            "--trace-out", str(trace_path), "--jsonl-out", str(jsonl_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "spans" in out and "metrics" in out
        import json

        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        assert jsonl_path.read_text().strip()

    def test_fig6_with_trace_out_runs(self, capsys, tmp_path):
        trace_path = tmp_path / "fig6.json"
        code = main([
            "fig6", "--updates", "60", "--items", "5",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        assert "trace events" in capsys.readouterr().out
        assert trace_path.exists()


class TestRemovedCommands:
    def test_profile_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile"])
        assert exc.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    def test_check_and_observe_take_no_experiment(self, capsys):
        for argv in (["check", "fig6"], ["observe", "table1"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestReportCommand:
    def test_report_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_report_renders_sweep_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "sweep.json"
        assert main(["sweep", "fig6-small", "--out", str(out)]) == 0
        capsys.readouterr()
        sweep = json.loads(out.read_text())

        html = tmp_path / "dossier.html"
        assert main(["report", str(out), "--html", str(html)]) == 0
        printed = capsys.readouterr().out
        for title in ("Sweep", "Tasks", "Merged telemetry"):
            assert title in printed
        assert "fig6-small" in printed
        events = sum(
            r["telemetry"]["events_processed"] for r in sweep["results"]
        )
        assert str(events) in printed
        document = html.read_text()
        assert document.startswith("<!doctype html>")
        assert document.endswith("</html>")
        assert "Sweep dossier — fig6-small" in document
        # self-contained: no script, stylesheet link or remote asset
        for external in ("<script", "<link", "src=", "http"):
            assert external not in document

    def test_report_rejects_non_report_json(self, capsys, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            main(["report", str(bad)])
