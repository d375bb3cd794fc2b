"""Tests for spans: the observer's span records, the Chrome export, and
the instrumented pipeline (including pool workers and the memo).

The golden-export tests pin the Chrome trace-event contract (Perfetto /
``chrome://tracing`` compatibility).  That observation never changes the
answer is pinned for every leg and route by
``tests/obs/test_observer.py``; ``TestTracingEquivalence`` keeps the
spans-leg check of the two engine configurations outside that matrix:
the serial rung without a memo, and the process-wide default memo.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.cache.model import CostModel
from repro.core.dp_greedy import solve_dp_greedy
from repro.obs.observer import (
    Observer,
    SpanRecord,
    maybe_span,
    write_chrome_trace,
)
from repro.trace.workload import zipf_item_workload

_MODEL = CostModel(mu=1.0, lam=1.0)


def _workload():
    """A workload with several serving units (packages AND singletons),
    so pool configurations genuinely dispatch."""
    return zipf_item_workload(200, 6, 10, seed=5)


def _traced_solve(seq, *, observer, **engine):
    return solve_dp_greedy(
        seq, _MODEL, theta=0.3, alpha=0.8, observer=observer, **engine
    )


class TestTracer:
    def test_span_records_interval_and_identity(self):
        observer = Observer(spans=True)
        with observer.span("work", cat="test", n=3):
            pass
        (rec,) = observer.records()
        assert rec.name == "work" and rec.cat == "test"
        assert rec.args == {"n": 3}
        assert rec.duration >= 0.0
        assert rec.pid == os.getpid()
        assert rec.tid == threading.get_ident()

    def test_nested_spans_are_contained(self):
        observer = Observer(spans=True)
        with observer.span("outer"):
            with observer.span("inner"):
                pass
        inner, outer = observer.records()  # inner closes first
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.start <= inner.start
        assert inner.start + inner.duration <= outer.start + outer.duration + 1e-9

    def test_late_attributes_via_span_set(self):
        observer = Observer(spans=True)
        with observer.span("probe") as span:
            span.set("memo", "hit")
        (rec,) = observer.records()
        assert rec.args["memo"] == "hit"

    def test_span_recorded_on_exception(self):
        observer = Observer(spans=True)
        with pytest.raises(RuntimeError):
            with observer.span("boom"):
                raise RuntimeError("x")
        assert len(observer.records()) == 1

    def test_mark_scopes_a_window(self):
        observer = Observer(spans=True)
        with observer.span("before"):
            pass
        mark = observer.mark()
        with observer.span("after"):
            pass
        assert [r.name for r in observer.records(since=mark)] == ["after"]
        events = observer.to_chrome(since=mark)["traceEvents"]
        assert {e["name"] for e in events if e["ph"] == "X"} == {"after"}

    def test_extend_merges_worker_records(self):
        observer = Observer(spans=True)
        foreign = SpanRecord(
            name="phase2.solve",
            cat="phase2",
            start=1.0,
            duration=0.5,
            pid=99999,
            tid=1,
            args={"unit": "item(0)"},
        )
        observer.absorb((99999, [foreign], {}, 0, 0.0))
        assert observer.records() == (foreign,)
        assert observer.totals()["phase2.solve"] == {"seconds": 0.5, "calls": 1}

    def test_aggregate_matches_timers_snapshot_shape(self):
        observer = Observer(spans=True)
        for _ in range(3):
            with observer.span("phase2.solve"):
                pass
        agg = observer.totals()
        assert agg["phase2.solve"]["calls"] == 3
        assert agg["phase2.solve"]["seconds"] >= 0.0

    def test_empty_tracer_is_falsy_but_not_none(self):
        # an observer keeping no span is still an observer: call sites
        # test `is not None`, never the (empty) records
        observer = Observer(spans=True)
        assert not observer.records()
        assert observer is not None


class TestMaybeSpan:
    def test_none_tracer_yields_noop_handle(self):
        with maybe_span(None, "anything", cat="x", k=1) as span:
            span.set("memo", "hit")  # must not raise

    def test_real_tracer_records(self):
        observer = Observer(spans=True)
        with maybe_span(observer, "real", cat="x"):
            pass
        assert [r.name for r in observer.records()] == ["real"]


class TestChromeExport:
    """Golden test of the trace-event JSON contract."""

    def _trace_of(self, **engine):
        seq = _workload()
        observer = Observer(spans=True)
        _traced_solve(seq, observer=observer, **engine)
        return observer, observer.to_chrome()

    def test_chrome_payload_is_valid(self, tmp_path):
        observer, chrome = self._trace_of()
        assert set(chrome) == {"traceEvents", "displayTimeUnit"}
        assert chrome["displayTimeUnit"] == "ms"
        xs = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        ms = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == len(observer.records())
        assert {e["name"] for e in ms} == {"process_name"}
        assert {e["pid"] for e in ms} == {r.pid for r in observer.records()}
        for e in xs:
            assert isinstance(e["ts"], float) and e["ts"] >= 0.0
            assert isinstance(e["dur"], float) and e["dur"] >= 0.0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        # round-trips through JSON on disk
        path = write_chrome_trace(chrome, tmp_path / "trace.json")
        assert json.loads(path.read_text()) == chrome

    def test_serial_solve_spans_nest_inside_phase2(self):
        observer, _ = self._trace_of()
        records = observer.records()
        names = [r.name for r in records]
        for expected in (
            "phase1.similarity",
            "phase1.packing",
            "phase2.serve",
            "phase2.solve",
        ):
            assert expected in names, expected
        (serve,) = [r for r in records if r.name == "phase2.serve"]
        solves = [r for r in records if r.name == "phase2.solve"]
        assert solves
        for s in solves:
            assert serve.start <= s.start + 1e-9
            assert s.start + s.duration <= serve.start + serve.duration + 1e-9
            assert s.args["unit"]  # e.g. "pkg(1,2)" / "item(7)"

    def test_process_pool_spans_carry_worker_pids(self):
        observer, chrome = self._trace_of(workers=2)
        solves = [r for r in observer.records() if r.name == "phase2.solve"]
        assert solves
        parent = os.getpid()
        assert all(r.pid != parent for r in solves)
        # each worker process gets its own named metadata track
        labels = {
            e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M"
        }
        assert "dp_greedy" in labels
        assert any(label.startswith("pool worker") for label in labels)

    def test_memo_probes_stamp_hit_and_miss(self):
        seq = _workload()
        from repro.engine.memo import SolverMemo

        memo = SolverMemo()
        observer = Observer(spans=True)
        _traced_solve(seq, observer=observer, workers=1, memo=memo)
        first = [r for r in observer.records() if r.name == "engine.memo_probe"]
        assert first and all(r.args["memo"] == "miss" for r in first)
        mark = observer.mark()
        _traced_solve(seq, observer=observer, workers=1, memo=memo)
        second = [
            r
            for r in observer.records(since=mark)
            if r.name == "engine.memo_probe"
        ]
        assert second and any(r.args["memo"] == "hit" for r in second)


class TestTracingEquivalence:
    """Tracing must never change what the solver computes."""

    @pytest.mark.parametrize(
        "engine",
        [
            dict(workers=1),
            dict(workers=1, memo=True),
        ],
        ids=["engine-serial", "memo"],
    )
    def test_traced_run_is_byte_identical(self, engine):
        seq = zipf_item_workload(160, 8, 10, seed=11)
        ref = solve_dp_greedy(seq, _MODEL, theta=0.3, alpha=0.8, **engine)
        got = _traced_solve(seq, observer=Observer(spans=True), **engine)
        assert got.total_cost == ref.total_cost  # exact, not approx
        assert got.reports == ref.reports
        assert got.plan == ref.plan
