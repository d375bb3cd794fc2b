"""Tests for the runtime telemetry leg (repro.obs.telemetry) of the observer."""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import CostModel
from repro.core.dp_greedy import solve_dp_greedy
from repro.obs.metrics import (
    METRICS_SCHEMA,
    METRICS_SCHEMAS,
    read_metrics,
)
from repro.obs.observer import Observer, active, install
from repro.trace.workload import correlated_pair_sequence
from repro.obs.telemetry import (
    PROM_LINE_RE,
    LatencyHistogram,
    ProgressBoard,
    ResourceSampler,
    render_dashboard,
    render_prometheus,
    sample_resources,
    worker_usage,
)


class TestLatencyHistogram:
    def test_empty_histogram(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.quantile(0.5) is None
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["quantiles"]["p50"] is None

    def test_single_value_quantiles_are_exact(self):
        h = LatencyHistogram()
        h.record(0.125)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.125)

    def test_quantiles_match_numpy_within_bucket_width(self):
        # inverted_cdf is the "smallest observation reaching rank
        # ceil(q*n)" estimator -- exactly the histogram's definition,
        # modulo bucket rounding.
        rng = np.random.default_rng(42)
        vals = rng.lognormal(mean=-7.0, sigma=2.0, size=1000)
        h = LatencyHistogram()
        for v in vals:
            h.record(float(v))
        for q in (0.5, 0.9, 0.99):
            ref = float(np.quantile(vals, q, method="inverted_cdf"))
            got = h.quantile(q)
            assert ref <= got <= ref * LatencyHistogram.GROWTH * (1 + 1e-12)

    def test_zero_and_negative_values_hit_the_zeros_slot(self):
        h = LatencyHistogram()
        h.record(0.0)
        h.record(-1.0)
        h.record(1.0)
        snap = h.snapshot()
        assert snap["zeros"] == 2
        assert h.quantile(0.5) == 0.0  # rank 2 of 3 is a zero
        assert h.quantile(1.0) == pytest.approx(1.0)

    def test_merge_is_equivalent_to_recording_everything(self):
        rng = np.random.default_rng(7)
        vals = rng.exponential(0.01, size=300)
        whole = LatencyHistogram()
        a, b = LatencyHistogram(), LatencyHistogram()
        for i, v in enumerate(vals):
            whole.record(float(v))
            (a if i % 2 else b).record(float(v))
        merged = LatencyHistogram().merge(a).merge(b)
        ms, ws = merged.snapshot(), whole.snapshot()
        # float summation order differs between the two; all else exact
        assert ms["sum"] == pytest.approx(ws.pop("sum"), rel=1e-12)
        ms.pop("sum")
        assert ms == ws

    def test_snapshot_roundtrip(self):
        h = LatencyHistogram()
        for v in (1e-6, 3e-4, 0.02, 0.02, 1.5):
            h.record(v)
        clone = LatencyHistogram.from_snapshot(h.snapshot())
        assert clone.snapshot() == h.snapshot()
        # JSON-serialisable as-is (the METRICS payload requirement)
        json.dumps(h.snapshot())

    def test_snapshot_quantiles_clamped_into_observed_range(self):
        h = LatencyHistogram()
        h.record(0.01)
        h.record(0.0100001)
        snap = h.snapshot()
        for tag in ("p50", "p90", "p99"):
            assert snap["min"] <= snap["quantiles"][tag] <= snap["max"]


@st.composite
def _histograms(draw):
    vals = draw(
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e4,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=30,
        )
    )
    h = LatencyHistogram()
    for v in vals:
        h.record(v)
    return h


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(_histograms(), _histograms(), _histograms())
    def test_merge_is_associative(self, a, b, c):
        def clone(h):
            return LatencyHistogram.from_snapshot(h.snapshot())

        left = clone(a).merge(clone(b).merge(clone(c)))
        right = clone(a).merge(clone(b)).merge(clone(c))
        ls, rs = left.snapshot(), right.snapshot()
        # float summation order may differ; everything else is exact
        assert ls["buckets"] == rs["buckets"]
        assert ls["count"] == rs["count"]
        assert ls["zeros"] == rs["zeros"]
        assert ls["min"] == rs["min"]
        assert ls["max"] == rs["max"]
        assert ls["sum"] == pytest.approx(rs["sum"], rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_histograms(), _histograms())
    def test_merge_is_commutative_on_buckets(self, a, b):
        def clone(h):
            return LatencyHistogram.from_snapshot(h.snapshot())

        ab = clone(a).merge(clone(b)).snapshot()
        ba = clone(b).merge(clone(a)).snapshot()
        assert ab["buckets"] == ba["buckets"]
        assert ab["count"] == ba["count"]
        assert ab["min"] == ba["min"]
        assert ab["max"] == ba["max"]


class TestResourceSampling:
    def test_sample_resources_shape(self):
        s = sample_resources()
        assert s["rss_bytes"] > 0
        assert s["num_threads"] >= 1
        assert s["cpu_seconds"] >= 0.0
        assert s["open_fds"] >= 1

    def test_worker_usage_positive(self):
        rss, cpu = worker_usage()
        assert rss > 0
        assert cpu >= 0.0

    def test_sampler_takes_at_least_one_sample(self):
        sampler = ResourceSampler(interval=10.0)
        sampler.start()
        try:
            time.sleep(0.01)
        finally:
            sampler.stop()
        snap = sampler.snapshot()
        assert snap["samples_taken"] >= 1
        assert snap["peak_rss_bytes"] > 0
        assert snap["samples"]

    def test_sampler_decimates_instead_of_growing_unboundedly(self):
        sampler = ResourceSampler(interval=0.001, max_samples=8)
        sampler.start()
        try:
            time.sleep(0.1)
        finally:
            sampler.stop()
        assert len(sampler.snapshot(tail=10_000)["samples"]) <= 8


class TestProgressBoard:
    def test_lifecycle_counts(self):
        b = ProgressBoard()
        b.begin(3)
        b.unit_started("u0")
        b.unit_started("u1")
        b.unit_finished("u0", ok=True)
        b.unit_finished("u1", ok=False)
        b.unit_retried("u2")
        b.degraded("process")
        snap = b.snapshot()
        assert snap["total"] == 3
        assert snap["done"] == 1
        assert snap["failed"] == 1
        assert snap["retries"] == 1
        assert snap["degradations"] == 1
        assert snap["in_flight"] == 0

    def test_stall_detection_flags_silent_units_once(self):
        b = ProgressBoard(stall_after=0.01)
        b.begin(2)
        b.unit_started("slow")
        time.sleep(0.03)
        assert b.check_stalls() == ["slow"]
        assert b.check_stalls() == []  # flagged once, not per sweep
        assert b.snapshot()["stalls"] == 1

    def test_finished_units_never_stall(self):
        b = ProgressBoard(stall_after=0.01)
        b.begin(1)
        b.unit_started("fast")
        b.unit_finished("fast", ok=True)
        time.sleep(0.03)
        assert b.check_stalls() == []
        assert b.snapshot()["stalls"] == 0

    def test_eta_appears_once_some_units_finish(self):
        b = ProgressBoard()
        b.begin(4)
        assert b.eta_seconds() is None
        b.unit_started("u0")
        b.unit_finished("u0", ok=True)
        assert b.eta_seconds() is not None


class TestTelemetryHub:
    def test_context_manager_starts_and_stops(self):
        with Observer(runtime=True, sample_interval=10.0) as observer:
            assert observer.started
            observer.record("phase2.solve_seconds", 0.001)
        assert not observer.started
        lat = observer.cumulative_latency()
        assert lat["phase2.solve_seconds"]["count"] == 1
        assert observer.resources_snapshot()["parent"]["samples_taken"] >= 1

    def test_watchdog_flags_stalls(self):
        with Observer(runtime=True, sample_interval=10.0, stall_after=0.02) as observer:
            observer.board.begin(1)
            observer.board.unit_started("hung")
            time.sleep(0.2)
        assert observer.board.stalls == 1

    def test_begin_run_windows_latency_per_run(self):
        with Observer(runtime=True, ledger=True, sample_interval=10.0) as observer:
            observer.begin_run()
            observer.record("phase2.solve_seconds", 0.001)
            first = observer.end_run(0.0, units=0).latency
            observer.begin_run()
            second = observer.end_run(0.0, units=0).latency
        assert first["phase2.solve_seconds"]["count"] == 1
        assert second == {}
        cum = observer.cumulative_latency()
        assert cum["phase2.solve_seconds"]["count"] == 1

    def test_absorb_worker_stats(self):
        observer = Observer(runtime=True, sample_interval=10.0)
        shipped = LatencyHistogram()
        shipped.record(0.002)
        observer.absorb(
            (4321, [], {"phase2.solve_seconds": shipped.snapshot()}, 123456, 0.5)
        )
        assert observer.cumulative_latency()["phase2.solve_seconds"]["count"] == 1
        workers = observer.resources_snapshot()["workers"]
        assert workers["4321"]["peak_rss_bytes"] == 123456

    def test_install_active_roundtrip(self):
        observer = Observer(runtime=True, sample_interval=10.0)
        prev = install(observer)
        try:
            assert active() is observer
        finally:
            install(prev)
        assert active() is not observer


def _observed_solve(runs: int = 1):
    """One tiny real solve per run, metered through a runtime observer."""
    seq = correlated_pair_sequence(20, 4, 0.5, seed=2)
    model = CostModel(mu=1.0, lam=1.0)
    with Observer(runtime=True, ledger=True, sample_interval=10.0) as observer:
        for run in range(runs):
            observer.begin_run(run=run)
            solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, observer=observer)
    return observer


class TestPrometheusRendering:
    def _snapshot(self):
        return _observed_solve().metrics()

    def test_every_line_matches_the_text_format(self):
        text = render_prometheus(self._snapshot())
        assert text
        for line in text.splitlines():
            assert PROM_LINE_RE.match(line), line

    def test_summary_family_with_quantile_labels(self):
        text = render_prometheus(self._snapshot())
        assert "# TYPE repro_phase2_solve_seconds summary" in text
        assert 'quantile="0.5"' in text
        assert "repro_phase2_solve_seconds_count" in text
        assert "repro_phase2_solve_seconds_max" in text

    def test_counters_and_namespace(self):
        text = render_prometheus(self._snapshot(), namespace="dpg")
        assert 'dpg_counter{counter="engine.stalls"} 0' in text

    def test_empty_snapshot_renders_without_samples(self):
        text = render_prometheus({"aggregate": {}})
        for line in text.splitlines():
            assert PROM_LINE_RE.match(line), line


class TestDashboard:
    def test_dashboard_renders_all_sections(self):
        with Observer(runtime=True, sample_interval=10.0) as observer:
            observer.board.begin(2)
            observer.board.unit_started("u0")
            observer.board.unit_finished("u0", ok=True)
            observer.record("phase2.solve_seconds", 0.002)
        text = render_dashboard(observer)
        assert "1/2" in text
        assert "latency (ms)" in text
        assert "rss peak" in text


class TestMetricsV3:
    def test_schema_is_v3_and_a_superset_list(self):
        assert METRICS_SCHEMA == "repro.obs/metrics/v3"
        assert METRICS_SCHEMA in METRICS_SCHEMAS
        assert "repro.obs/metrics/v2" in METRICS_SCHEMAS

    def test_run_snapshot_carries_latency_and_resources(self):
        snap = _observed_solve().metrics()
        run = snap["runs"][0]
        assert run["latency"]["phase2.solve_seconds"]["count"] >= 1
        assert run["resources"]["parent"]["samples_taken"] >= 1
        agg = snap["aggregate"]
        assert agg["latency"]["phase2.solve_seconds"]["count"] >= 1
        assert agg["resources"]["peak_rss_bytes"] > 0

    def test_aggregate_merges_latency_across_runs(self):
        snap = _observed_solve(runs=3).metrics()
        per_run = [
            r["latency"]["phase2.solve_seconds"]["count"]
            for r in snap["runs"]
        ]
        # begin_run windows each run's histograms: no double counting
        assert snap["aggregate"]["latency"]["phase2.solve_seconds"][
            "count"
        ] == sum(per_run)

    def test_read_metrics_accepts_v2_golden(self, tmp_path):
        golden = {
            "schema": "repro.obs/metrics/v2",
            "runs": [
                {
                    "run_id": 0,
                    "params": {"trace": "t"},
                    "total_cost": 3.0,
                    "ledger_total": 3.0,
                    "reconciliation_error": 0.0,
                    "actions": {"cache": 3.0},
                    "phases": {},
                    "counters": {},
                    "spans": {},
                }
            ],
            "aggregate": {"runs": 1, "total_cost": 3.0},
        }
        path = tmp_path / "golden_v2.json"
        path.write_text(json.dumps(golden))
        for source in (golden, path):
            snap = read_metrics(source)
            assert snap["schema"] == "repro.obs/metrics/v2"
            # v3 sections default to empty, never KeyError
            assert snap["runs"][0]["latency"] == {}
            assert snap["runs"][0]["resources"] == {}
            assert snap["aggregate"]["latency"] == {}
            assert snap["aggregate"]["resources"] == {}

    def test_read_metrics_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            read_metrics({"schema": "repro.obs/metrics/v99", "runs": []})

    def test_v3_snapshot_roundtrips_through_read_metrics(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_observed_solve().metrics()))
        snap = read_metrics(path)
        assert snap["schema"] == "repro.obs/metrics/v3"
        assert snap["runs"][0]["latency"]["phase2.solve_seconds"]["count"] >= 1
