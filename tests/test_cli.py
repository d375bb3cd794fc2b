"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import ALL_EXPERIMENTS


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out


class TestDemo:
    def test_demo_prints_running_example(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "running_example" in out
        assert "paper" in out


class TestRun:
    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_quick_run_writes_artifacts(self, tmp_path: Path, capsys):
        out_dir = tmp_path / "res"
        assert main(["run", "fig09", "--out", str(out_dir), "--quick"]) == 0
        assert (out_dir / "fig09.csv").exists()
        assert (out_dir / "fig09.txt").exists()
        assert "fig09" in capsys.readouterr().out

    def test_quick_ratio_study(self, capsys):
        assert main(["run", "ratio_study", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "theorem_bound" in out or "ratio" in out


class TestSchedule:
    def test_renders_both_schedules(self, capsys):
        assert main(["schedule", "--n", "6", "--servers", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal off-line schedule" in out
        assert "simple greedy schedule" in out
        assert "greedy / optimal" in out

    def test_custom_rates(self, capsys):
        assert main(
            ["schedule", "--n", "4", "--servers", "2", "--mu", "2.0",
             "--lam", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "cost" in out


class TestSolve:
    def test_solve_a_saved_trace(self, tmp_path, capsys):
        from repro.trace import correlated_pair_sequence, save_sequence

        path = tmp_path / "trace.csv"
        save_sequence(path, correlated_pair_sequence(40, 5, 0.5, seed=2))
        assert main(["solve", str(path), "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "DP_Greedy" in out
        assert "Package_Served" in out
        assert "packages: [[1, 2]]" in out


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_parser_knows_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig12", "--quick"])
        assert args.experiment == "fig12"
        assert args.quick


class TestMetricsFlag:
    def test_run_with_metrics_writes_artefact(self, tmp_path: Path, capsys):
        import json

        out_dir = tmp_path / "res"
        rc = main([
            "run", "fig12", "--quick", "--metrics", "--out", str(out_dir)
        ])
        assert rc == 0
        path = out_dir / "METRICS_fig12.json"
        assert path.exists()
        snap = json.loads(path.read_text())
        assert snap["schema"] == "repro.obs/metrics/v3"
        assert snap["aggregate"]["max_reconciliation_error"] <= 1e-9
        assert "METRICS_fig12.json" in capsys.readouterr().out

    def test_run_metrics_defaults_out_to_results(self, tmp_path, capsys, monkeypatch):
        # --metrics promises an artefact even without --out
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig12", "--quick", "--metrics"]) == 0
        assert (tmp_path / "results" / "METRICS_fig12.json").exists()

    def test_run_without_metrics_writes_none(self, tmp_path: Path, capsys):
        out_dir = tmp_path / "res"
        assert main(["run", "fig12", "--quick", "--out", str(out_dir)]) == 0
        assert not (out_dir / "METRICS_fig12.json").exists()

    def test_solve_with_metrics(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.trace import correlated_pair_sequence, save_sequence

        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "trace.csv"
        save_sequence(trace, correlated_pair_sequence(40, 5, 0.5, seed=2))
        assert main(["solve", str(trace), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "cost attribution:" in out
        assert "phase wall-times:" in out
        snap = json.loads(
            (tmp_path / "results" / "METRICS_solve.json").read_text()
        )
        assert snap["aggregate"]["runs"] == 1
        assert snap["aggregate"]["max_reconciliation_error"] <= 1e-9


class TestLayering:
    def test_library_never_imports_the_cli(self):
        # the CLI sits on top of the library: only the command-line
        # modules (repro/cli.py, serve/cli.py, __main__.py) may import
        # it, and no other module may, not even inside a function body
        import ast

        import repro

        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path.name in ("cli.py", "__main__.py"):
                continue
            package = path.relative_to(root.parent).with_suffix("").parts[:-1]
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    base = package[: len(package) - node.level + 1] if node.level else ()
                    names = [".".join(base + tuple(filter(None, [node.module])))]
                    if node.module is None:
                        names = [f"{names[0]}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                offenders += [
                    (str(path.relative_to(root)), node.lineno)
                    for name in names
                    if name == "repro.cli" or name.startswith("repro.cli.")
                ]
        assert offenders == []


class TestResilienceFlags:
    def _args(self, argv):
        return build_parser().parse_args(argv)

    def test_all_defaults_keep_the_classic_path(self):
        from repro.cli import _resilience_from_args

        args = self._args(["solve", "trace.csv"])
        assert _resilience_from_args(args) is None

    def test_any_flag_builds_a_config(self):
        from repro.cli import _resilience_from_args

        args = self._args(
            ["solve", "trace.csv", "--unit-timeout", "0.5", "--retries",
             "3", "--on-unit-error", "skip"]
        )
        cfg = _resilience_from_args(args)
        assert cfg.unit_timeout == 0.5
        assert cfg.retries == 3
        assert cfg.on_unit_error == "skip"

    def test_partial_flags_inherit_defaults(self):
        from repro.cli import _resilience_from_args

        cfg = _resilience_from_args(self._args(["run", "all", "--retries", "5"]))
        assert cfg.retries == 5
        assert cfg.unit_timeout is None
        assert cfg.on_unit_error == "raise"

    def test_engine_kwargs_forward_only_supported_knobs(self):
        from repro.experiments import _engine_kwargs
        from repro.engine.resilience import ResilienceConfig

        cfg = ResilienceConfig(retries=1)

        def modern(resilience=None, checkpoint=None, resume=False):
            pass

        def legacy(workers=None):
            pass

        kw = _engine_kwargs(
            modern, None, False, resilience=cfg, checkpoint="ckpt",
            resume=True,
        )
        assert kw == {"resilience": cfg, "checkpoint": "ckpt", "resume": True}
        assert _engine_kwargs(legacy, None, False, resilience=cfg) == {}

    def test_resume_only_rides_with_checkpoint(self):
        from repro.experiments import _engine_kwargs

        def harness(checkpoint=None, resume=False):
            pass

        assert _engine_kwargs(harness, None, False, resume=True) == {}

    def test_solve_with_resilience_flags(self, tmp_path, capsys, monkeypatch):
        from repro.trace import correlated_pair_sequence, save_sequence

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        path = tmp_path / "trace.csv"
        save_sequence(path, correlated_pair_sequence(40, 5, 0.5, seed=2))
        assert main(["solve", str(path), "--retries", "1", "--workers",
                     "2"]) == 0
        out = capsys.readouterr().out
        assert "DP_Greedy" in out
        # a clean run never prints the resilience counter line
        assert "resilience:" not in out


class TestTraceErrorFlag:
    DIRTY = (
        "server,time,items\n"
        "0,0.5,1\n"
        "1,1.0\n"
        "0,1.5,1|2\n"
    )

    def test_skip_mode_reports_dropped_rows(self, tmp_path, capsys):
        path = tmp_path / "dirty.csv"
        path.write_text(self.DIRTY)
        assert main(
            ["solve", str(path), "--on-trace-error", "skip"]
        ) == 0
        out = capsys.readouterr().out
        assert "skipped 1/3 malformed row(s)" in out
        assert "line 3" in out

    def test_raise_is_the_default(self, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text(self.DIRTY)
        with pytest.raises(ValueError, match="malformed"):
            main(["solve", str(path)])

    def test_skip_counters_land_in_metrics(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        path = tmp_path / "dirty.csv"
        path.write_text(self.DIRTY)
        assert main(
            ["solve", str(path), "--on-trace-error", "skip", "--metrics"]
        ) == 0
        snap = json.loads(
            (tmp_path / "results" / "METRICS_solve.json").read_text()
        )
        counters = snap["runs"][0]["counters"]
        assert counters["trace.rows_total"] == 3
        assert counters["trace.rows_skipped"] == 1


class TestCheckpointFlags:
    def test_run_writes_checkpoint_and_resumes(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        argv = ["run", "fig11", "--quick", "--out", str(out_dir),
                "--checkpoint", str(out_dir)]
        assert main(argv) == 0
        ckpt = out_dir / "CHECKPOINT_fig11.jsonl"
        assert ckpt.exists()
        first = (out_dir / "fig11.csv").read_text()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out
        assert (out_dir / "fig11.csv").read_text() == first

    def test_resume_defaults_checkpoint_to_out(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        assert main(["run", "fig11", "--quick", "--out", str(out_dir)]) == 0
        assert main(
            ["run", "fig11", "--quick", "--out", str(out_dir), "--resume"]
        ) == 0
        assert (out_dir / "CHECKPOINT_fig11.jsonl").exists()


class TestTraceStoreCommands:
    def _write_csv(self, tmp_path):
        from repro.trace import save_sequence, zipf_item_workload

        path = tmp_path / "trace.csv"
        save_sequence(path, zipf_item_workload(60, 6, 8, seed=4))
        return path

    def test_convert_writes_a_store(self, tmp_path, capsys):
        csv_path = self._write_csv(tmp_path)
        store = tmp_path / "trace.store"
        assert main(["trace", "convert", str(csv_path), str(store)]) == 0
        out = capsys.readouterr().out
        assert "60 requests" in out
        assert (store / "meta.json").exists()

    def test_convert_skip_mode_reports_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "dirty.csv"
        csv_path.write_text("server,time,items\n0,0.5,1\n0,0.4,1\n0,1.0,2\n")
        store = tmp_path / "dirty.store"
        argv = ["trace", "convert", str(csv_path), str(store),
                "--on-error", "skip"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "skipped 1/3" in out

    def test_solve_store_matches_csv_solve(self, tmp_path, capsys):
        csv_path = self._write_csv(tmp_path)
        store = tmp_path / "trace.store"
        assert main(["trace", "convert", str(csv_path), str(store)]) == 0
        capsys.readouterr()
        assert main(["solve", str(csv_path)]) == 0
        ref = capsys.readouterr().out
        assert main(["solve", str(store), "--store"]) == 0
        got = capsys.readouterr().out
        # identical cost table off the mmap-backed store
        assert got[got.index("DP_Greedy"):] == ref[ref.index("DP_Greedy"):]

    def test_solve_sharded_prints_fanout(self, tmp_path, capsys):
        csv_path = self._write_csv(tmp_path)
        store = tmp_path / "trace.store"
        assert main(["trace", "convert", str(csv_path), str(store)]) == 0
        capsys.readouterr()
        argv = ["solve", str(store), "--store", "--shards", "3", "--no-memo"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sharded: 3 shard(s)" in out

    def test_trace_without_action_shows_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_shards_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "x.csv", "--shards", "0"])


class TestTelemetryFlags:
    def _store(self, tmp_path, capsys):
        from repro.trace import save_sequence, zipf_item_workload

        csv_path = tmp_path / "trace.csv"
        save_sequence(csv_path, zipf_item_workload(60, 6, 8, seed=4))
        store = tmp_path / "trace.store"
        assert main(["trace", "convert", str(csv_path), str(store)]) == 0
        capsys.readouterr()
        return store

    def test_sharded_store_solve_honours_all_telemetry_flags(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.obs.telemetry import PROM_LINE_RE

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        monkeypatch.chdir(tmp_path)
        store = self._store(tmp_path, capsys)
        trace_out = tmp_path / "spans.json"
        prom_out = tmp_path / "solve.prom"
        argv = [
            "solve", str(store), "--store", "--shards", "3", "--workers",
            "2", "--metrics", "--trace", str(trace_out), "--prom",
            str(prom_out), "--progress",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sharded: 3 shard(s)" in out
        assert "latency (ms)" in out  # the --progress dashboard

        # --trace: a non-empty Chrome trace
        spans = json.loads(trace_out.read_text())
        assert spans["traceEvents"]

        # --metrics: a v3 snapshot with per-run latency histograms
        snap = json.loads(
            (tmp_path / "results" / "METRICS_solve.json").read_text()
        )
        assert snap["schema"] == "repro.obs/metrics/v3"
        agg = snap["aggregate"]
        solve_hist = agg["latency"]["phase2.solve_seconds"]
        assert solve_hist["count"] >= 1
        assert solve_hist["quantiles"]["p50"] is not None
        assert agg["resources"]["peak_rss_bytes"] > 0
        assert "engine.stalls" in agg["counters"]

        # --prom: every line passes the text-format check
        text = prom_out.read_text()
        assert text
        for line in text.splitlines():
            assert PROM_LINE_RE.match(line), line

    def test_prom_implies_metrics(self, tmp_path, capsys, monkeypatch):
        from repro.trace import correlated_pair_sequence, save_sequence

        monkeypatch.chdir(tmp_path)
        path = tmp_path / "trace.csv"
        save_sequence(path, correlated_pair_sequence(40, 5, 0.5, seed=2))
        prom_out = tmp_path / "solve.prom"
        assert main(["solve", str(path), "--prom", str(prom_out)]) == 0
        assert prom_out.exists()
        assert (tmp_path / "results" / "METRICS_solve.json").exists()

    def test_telemetry_flags_leave_costs_bit_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        monkeypatch.chdir(tmp_path)
        store = self._store(tmp_path, capsys)
        assert main(["solve", str(store), "--store", "--shards", "3"]) == 0
        ref = capsys.readouterr().out
        assert main([
            "solve", str(store), "--store", "--shards", "3", "--metrics",
            "--prom", str(tmp_path / "x.prom"), "--progress",
            "--stall-after", "30",
        ]) == 0
        got = capsys.readouterr().out
        ref_table = ref[ref.index("DP_Greedy"):ref.index("Package_Served")]
        got_table = got[got.index("DP_Greedy"):got.index("Package_Served")]
        assert got_table == ref_table

    def test_run_prom_writes_artefact(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        prom_out = tmp_path / "fig12.prom"
        assert main([
            "run", "fig12", "--quick", "--out", str(out_dir), "--prom",
            str(prom_out),
        ]) == 0
        assert prom_out.exists()
        assert (out_dir / "PROM_fig12.prom").exists()
        # --prom implies --metrics
        assert (out_dir / "METRICS_fig12.json").exists()

    def test_log_level_flag_parses_in_both_positions(self):
        parser = build_parser()
        assert parser.parse_args(
            ["--log-level", "info", "solve", "x.csv"]
        ).log_level == "info"
        assert parser.parse_args(
            ["solve", "x.csv", "--log-level", "debug"]
        ).log_level == "debug"
        assert parser.parse_args(["solve", "x.csv"]).log_level is None
        assert parser.parse_args(["solve", "x.csv", "-q"]).quiet
