"""Unit tests for the observer's phase span totals and its run counters."""

from __future__ import annotations

import pytest

from repro.engine.parallel import EngineStats
from repro.obs import Observer, RunRecord, SpanRecord, metrics_snapshot


class TestPhaseTimers:
    def test_accumulates_seconds_and_calls(self):
        observer = Observer()  # phase spans aggregate with no leg on
        for _ in range(3):
            with observer.span("phase2.serve"):
                pass
        totals = observer.totals()
        assert totals["phase2.serve"]["calls"] == 3
        assert totals["phase2.serve"]["seconds"] >= 0.0
        assert "phase1.packing" not in totals

    def test_time_is_monotone(self):
        import time as _time

        observer = Observer()
        with observer.span("phase1.packing"):
            _time.sleep(0.01)
        assert observer.totals()["phase1.packing"]["seconds"] >= 0.005

    def test_exception_still_recorded(self):
        observer = Observer()
        with pytest.raises(RuntimeError):
            with observer.span("phase2.serve"):
                raise RuntimeError("boom")
        assert observer.totals()["phase2.serve"]["calls"] == 1

    def test_snapshot_shape(self):
        observer = Observer(spans=True)
        with observer.span("b"):
            pass
        with observer.span("a"):
            pass
        snap = observer.totals()
        assert list(snap) == ["a", "b"]  # sorted
        assert set(snap["a"]) == {"seconds", "calls"}
        assert isinstance(snap["a"]["calls"], int)

    def test_unknown_phase_reads_zero(self):
        # without the spans leg only the phases aggregate
        observer = Observer()
        with observer.span("nope"):
            pass
        assert observer.totals() == {}

    def test_add_folds_external_intervals(self):
        observer = Observer(spans=True)
        shipped = [
            SpanRecord("p", "phase", 1.0, 1.5, 4321, 1, {}),
            SpanRecord("p", "phase", 3.0, 0.5, 4321, 1, {}),
        ]
        observer.absorb((4321, shipped, {}, 0, 0.0))
        assert observer.totals()["p"]["seconds"] == pytest.approx(2.0)
        assert observer.totals()["p"]["calls"] == 2

    def test_merge_timers_and_snapshot_shaped_mappings(self):
        runs = [
            RunRecord({}, phases={"x": {"seconds": 1.0, "calls": 1}}, total_cost=0.0),
            RunRecord(
                {},
                phases={
                    "x": {"seconds": 2.0, "calls": 2},
                    "y": {"seconds": 0.25, "calls": 1},
                },
                total_cost=0.0,
            ),
        ]
        phases = metrics_snapshot(runs)["aggregate"]["phases"]
        assert phases["x"]["seconds"] == pytest.approx(3.0)
        assert phases["x"]["calls"] == 3
        assert phases["y"] == {"seconds": 0.25, "calls": 1}

    def test_concurrent_adds_do_not_drop_updates(self):
        import sys
        import threading as _threading

        observer = Observer(spans=True, runtime=True)

        def hammer():
            for _ in range(500):
                with observer.span("phase2.solve"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [_threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert observer.totals()["phase2.solve"]["calls"] == 2000
        assert len(observer.records()) == 2000
        latency = observer.cumulative_latency()["phase2.solve_seconds"]
        assert latency["count"] == 2000


def _stats(**overrides):
    fields = dict(
        units=4,
        packages=1,
        singletons=3,
        workers=2,
        pool="process",
        dispatched=3,
        memo_hits=7,
        memo_misses=3,
    )
    fields.update(overrides)
    return EngineStats(**fields)


class TestCounterRegistry:
    def test_set_get_add(self):
        observer = Observer(ledger=True)
        run = observer.begin_run()
        run.counters["trace.rows_total"] = 5  # a caller's own counter
        observer.end_run(0.0, units=4)
        assert observer.runs == [run]
        assert run.counters["trace.rows_total"] == 5
        assert run.counters["phase2.units"] == 4

    def test_add_to_non_numeric_rejected(self):
        # labels ride along per run but never sum into the aggregate
        observer = Observer(ledger=True)
        for _ in range(2):
            observer.begin_run()
            observer.end_run(0.0, units=4, engine_stats=_stats())
        snap = observer.metrics()
        assert snap["runs"][0]["counters"]["engine.pool"] == "process"
        assert "engine.pool" not in snap["aggregate"]["counters"]
        assert snap["aggregate"]["counters"]["engine.memo_hits"] == 14

    def test_absorb_with_prefix(self):
        from repro.engine.memo import SolverMemo

        observer = Observer(ledger=True)
        observer.begin_run()
        run = observer.end_run(0.0, units=0, memo=SolverMemo())
        assert run.counters["memo.hits"] == 0
        assert run.counters["memo.entries"] == 0

    def test_absorb_engine_stats_dataclass(self):
        observer = Observer(ledger=True)
        observer.begin_run()
        run = observer.end_run(0.0, units=4, engine_stats=_stats())
        assert run.counters["engine.memo_hits"] == 7
        assert run.counters["engine.pool"] == "process"
        assert run.counters["engine.workers"] == 2
        assert run.counters["engine.memo_hit_rate"] == pytest.approx(0.7)

    def test_absorb_stats_rejects_non_dataclass(self):
        observer = Observer(ledger=True)
        observer.begin_run()
        with pytest.raises(TypeError):
            observer.end_run(0.0, units=0, engine_stats={"hits": 1})

    def test_snapshot_sorted_copy(self):
        run = RunRecord({}, counters={"z": 1, "a": 2})
        snap = run.snapshot()["counters"]
        assert list(snap) == ["a", "z"]
        snap["a"] = 99
        assert run.counters["a"] == 2  # snapshot is a copy
