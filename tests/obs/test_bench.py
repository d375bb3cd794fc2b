"""Unit tests for the benchmark-history recorder and regression gate."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchHistory,
    BenchRecord,
    check_history,
    main,
    time_best_of,
)
from repro.obs import Observer


@pytest.fixture
def history(tmp_path):
    return BenchHistory(tmp_path / "BENCH_history.jsonl")


class TestBenchHistory:
    def test_append_and_load_round_trip(self, history):
        rec = history.append("bench.a", 1.25, {"n": 100}, rev="abc123")
        assert rec.schema == BENCH_SCHEMA
        assert rec.git_rev == "abc123"
        assert rec.timestamp  # stamped automatically
        (loaded,) = history.load()
        assert loaded.bench == "bench.a"
        assert loaded.seconds == 1.25
        assert loaded.counters == {"n": 100}

    def test_line_is_documented_schema(self, history):
        history.append("bench.a", 0.5, rev="r", timestamp="t")
        raw = json.loads(history.path.read_text())
        assert set(raw) == {
            "schema", "bench", "seconds", "counters", "git_rev", "timestamp"
        }
        assert raw["schema"] == BENCH_SCHEMA

    def test_append_validates_inputs(self, history):
        with pytest.raises(ValueError):
            history.append("", 1.0)
        with pytest.raises(ValueError):
            history.append("b", float("nan"))
        with pytest.raises(ValueError):
            history.append("b", -0.5)

    def test_load_skips_malformed_and_foreign_lines(self, history):
        history.append("bench.a", 1.0)
        with history.path.open("a") as fh:
            fh.write("not json at all\n")
            fh.write('{"schema": "someone/else", "bench": "x", "seconds": 1}\n')
            fh.write('{"schema": "%s", "bench": "bad"}\n' % BENCH_SCHEMA)
            fh.write("\n")
        history.append("bench.a", 2.0)
        assert [r.seconds for r in history.load()] == [1.0, 2.0]

    def test_missing_file_loads_empty(self, history):
        assert history.load() == []
        assert history.baseline("bench.a") is None

    def test_baseline_is_best_of_window(self, history):
        for s in (9.0, 1.0, 3.0, 2.0):
            history.append("bench.a", s)
        assert history.baseline("bench.a") == 1.0
        # the 9.0 and 1.0 runs age out of a window of 2
        assert history.baseline("bench.a", window=2) == 2.0


class TestRegressionCheck:
    def test_first_run_has_no_baseline(self, history):
        verdict = history.check("bench.a", 5.0)
        assert verdict.ok and verdict.baseline is None
        assert verdict.reason == "no baseline yet"

    def test_within_ratio_passes(self, history):
        history.append("bench.a", 1.0)
        verdict = history.check("bench.a", 1.4)
        assert verdict.ok and verdict.baseline == 1.0

    def test_regression_fails_with_reason(self, history):
        history.append("bench.a", 1.0)
        verdict = history.check("bench.a", 1.6)
        assert not verdict.ok
        assert "REGRESSION" in verdict.reason

    def test_custom_ratio(self, history):
        history.append("bench.a", 1.0)
        assert history.check("bench.a", 1.9, ratio=2.0).ok
        assert not history.check("bench.a", 1.2, ratio=1.1).ok

    def test_check_history_excludes_latest_from_baseline(self, history):
        # latest run regressed vs both prior runs; the latest record must
        # not count toward its own baseline
        for s in (1.0, 1.1, 2.0):
            history.append("bench.a", s)
        history.append("bench.b", 1.0)
        verdicts = {v.bench: v for v in check_history(history.path)}
        assert not verdicts["bench.a"].ok
        assert verdicts["bench.a"].baseline == 1.0
        assert verdicts["bench.b"].ok  # single run: no baseline yet

    def test_check_history_window(self, history):
        for s in (0.1, 5.0, 5.0, 5.1):
            history.append("bench.a", s)
        # full window still sees the 0.1 -> regression
        assert not check_history(history.path)[0].ok
        # window of 2 only sees the 5.0s -> fine
        assert check_history(history.path, window=2)[0].ok


class TestTimeBestOf:
    def test_returns_best_and_feeds_timers(self):
        calls = []
        observer = Observer(spans=True)
        best = time_best_of(
            lambda: calls.append(1), repeats=4, observer=observer, phase="p"
        )
        assert len(calls) == 4
        assert best >= 0.0
        assert observer.totals()["p"]["calls"] == 4  # one span per repeat
        assert observer.totals()["p"]["seconds"] >= 0.0

    def test_passes_args_and_validates_repeats(self):
        seen = []
        time_best_of(seen.append, "x", repeats=1)
        assert seen == ["x"]
        with pytest.raises(ValueError):
            time_best_of(lambda: None, repeats=0)


class TestCli:
    def test_check_empty_history(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["check", "--history", str(missing)]) == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_check_pass_and_fail_exit_codes(self, history, capsys):
        for s in (1.0, 1.1):
            history.append("bench.a", s)
        assert main(["check", "--history", str(history.path)]) == 0
        history.append("bench.a", 5.0)
        assert main(["check", "--history", str(history.path)]) == 1
        assert main(["check", "--history", str(history.path), "--warn-only"]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_list_summarises(self, history, capsys):
        history.append("bench.a", 1.0)
        history.append("bench.a", 2.0)
        assert main(["list", "--history", str(history.path)]) == 0
        out = capsys.readouterr().out
        assert "bench.a" in out and "2 run(s)" in out


class TestBenchRecordParsing:
    def test_from_json_tolerates_garbage(self):
        assert BenchRecord.from_json("{") is None
        assert BenchRecord.from_json("[1, 2]") is None
        assert BenchRecord.from_json(json.dumps({"schema": BENCH_SCHEMA})) is None

    def test_from_json_round_trip(self):
        rec = BenchRecord("b", 1.0, {"n": 2}, "rev", "ts")
        assert BenchRecord.from_json(rec.to_json()) == rec
