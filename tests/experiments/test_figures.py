"""Shape tests for the figure harnesses (small, fast configurations).

Each test asserts the *qualitative* property the paper's figure reports
-- who wins, which direction the curve bends, where crossovers fall --
on reduced workloads so the whole suite stays quick.  The full-size runs
live in ``benchmarks/``.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_ratio_study,
    run_scaling,
)
from repro.experiments.scaling import time_best_of
from repro.obs import Observer
from repro.trace.mobility import TaxiTraceConfig, generate_taxi_trace


@pytest.fixture(scope="module")
def trace():
    return generate_taxi_trace(
        TaxiTraceConfig(num_taxis=10, duration=300.0, request_rate=0.4, seed=5)
    )


class TestFig09:
    def test_rows_cover_all_zones(self, trace):
        res = run_fig09(trace=trace)
        assert len(res.rows) == trace.grid.num_zones
        assert sum(r["requests"] for r in res.rows) == len(trace.sequence)

    def test_spatial_skew_reported(self, trace):
        res = run_fig09(trace=trace)
        # downtown bias concentrates load: top 10% of zones carry > 2x their
        # uniform share
        assert res.params["top_decile_share"] > 0.2

    def test_heatmap_in_notes(self, trace):
        res = run_fig09(trace=trace)
        assert any("scale:" in n for n in res.notes)


class TestFig10:
    def test_partner_pairs_lead_the_ranking(self, trace):
        res = run_fig10(trace=trace, top=10)
        top_rows = res.rows[:3]
        assert all(r["injected_partner_pair"] for r in top_rows)

    def test_jaccard_values_spread(self, trace):
        res = run_fig10(trace=trace)
        js = [r["jaccard"] for r in res.rows if r["injected_partner_pair"]]
        assert max(js) - min(js) > 0.2  # a spectrum, as in the paper

    def test_frequencies_positive_for_partners(self, trace):
        res = run_fig10(trace=trace)
        partners = [r for r in res.rows if r["injected_partner_pair"]]
        assert all(r["frequency"] > 0 for r in partners)


QUICK = dict(n_requests=160, repeats=1, num_servers=25)


class TestFig11:
    @pytest.fixture(scope="class")
    def res(self):
        return run_fig11(jaccards=(0.1, 0.25, 0.4, 0.55, 0.7), **QUICK)

    def test_dpg_improves_with_similarity(self, res):
        dpg = res.series["DP_Greedy"]
        assert dpg[-1][1] < dpg[0][1]

    def test_advantage_grows_with_similarity(self, res):
        rows = res.rows
        gap_low = rows[0]["dp_greedy_ave_cost"] - rows[0]["optimal_ave_cost"]
        gap_high = rows[-1]["dp_greedy_ave_cost"] - rows[-1]["optimal_ave_cost"]
        assert gap_high < gap_low

    def test_crossover_exists_at_moderate_similarity(self, res):
        assert "crossover_jaccard" in res.params
        assert 0.1 <= res.params["crossover_jaccard"] <= 0.6

    def test_dpg_wins_at_high_similarity(self, res):
        assert res.rows[-1]["dpg_wins"] == 1


class TestFig12:
    @pytest.fixture(scope="class")
    def res(self):
        return run_fig12(
            rhos=(0.2, 0.6, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0), **QUICK
        )

    def test_curve_rises_then_falls(self, res):
        curve = [y for _x, y in res.series["DP_Greedy"]]
        peak = max(range(len(curve)), key=curve.__getitem__)
        assert 0 < peak < len(curve) - 1, "peak must be interior"
        # initial rise steeper than final decline (paper's asymmetry)
        rise = curve[peak] - curve[0]
        fall = curve[peak] - curve[-1]
        assert rise > 0 and fall > 0

    def test_peak_near_two(self, res):
        assert 1.0 <= res.params["peak_rho"] <= 3.0

    def test_dpg_tracks_or_beats_optimal(self, res):
        """theta = 0.3 < J = 0.45: packing is active and pays off (up to a
        marginal premium at the cheap-transfer extreme)."""
        for row in res.rows:
            assert row["dp_greedy_ave_cost"] <= 1.02 * row["optimal_ave_cost"]
        mean_dpg = sum(r["dp_greedy_ave_cost"] for r in res.rows) / len(res.rows)
        mean_opt = sum(r["optimal_ave_cost"] for r in res.rows) / len(res.rows)
        assert mean_dpg < mean_opt


class TestFig13:
    @pytest.fixture(scope="class")
    def res(self):
        return run_fig13(
            alphas=(0.2, 0.8), jaccards=(0.1, 0.3, 0.5, 0.7), **QUICK
        )

    def test_small_alpha_packing_always_wins(self, res):
        rows = [r for r in res.rows if r["alpha"] == 0.2]
        assert all(r["package_served"] <= r["optimal"] for r in rows)

    def test_large_alpha_package_served_degrades(self, res):
        rows = {r["jaccard"]: r for r in res.rows if r["alpha"] == 0.8}
        # at low similarity the forced packing is clearly the worst
        assert rows[0.1]["package_served"] > rows[0.1]["optimal"]
        assert rows[0.3]["package_served"] > rows[0.3]["dp_greedy"]

    def test_dpg_never_worse_than_package_served_when_packing(self, res):
        """Wherever DP_Greedy packs (J > theta = 0.3), its greedy min
        includes the package option, so it can only improve on the forced
        packing of Package_Served."""
        for row in res.rows:
            if row["jaccard"] > 0.3:
                assert row["dp_greedy"] <= row["package_served"] + 1e-9

    def test_dpg_equals_optimal_below_threshold(self, res):
        """Below theta DP_Greedy does not pack and reduces to Optimal."""
        for row in res.rows:
            if row["jaccard"] < 0.3:
                assert row["dp_greedy"] == pytest.approx(row["optimal"])

    def test_dpg_tracks_best_extreme_when_packing(self, res):
        """Where packing is active, DP_Greedy stays within 20% of the
        better of the two extremes (its selective-packing promise)."""
        for row in res.rows:
            if row["jaccard"] > 0.3:
                best = min(row["package_served"], row["optimal"])
                assert row["dp_greedy"] <= 1.2 * best + 1e-9


class TestRatioStudy:
    def test_bound_respected_everywhere(self):
        res = run_ratio_study(trials=6, n_requests=60, num_servers=6)
        for row in res.rows:
            assert row["violations"] == 0
            assert row["worst_observed_ratio"] <= row["theorem_bound"] + 1e-9

    def test_greedy_companion_within_two(self):
        res = run_ratio_study(trials=6, n_requests=60, num_servers=6)
        assert res.params["worst_greedy_over_optimal"] <= 2.0 + 1e-9


class TestScaling:
    def test_slopes_reported(self):
        res = run_scaling(sizes=(100, 200, 400), num_servers=10)
        assert "dp_loglog_slope" in res.params
        assert "dp_dense_loglog_slope" in res.params
        assert "prescan_loglog_slope" in res.params
        # wall-clock slopes at these sizes move with host load; their
        # bounds live in benchmarks/test_bench_scaling.py
        for key in ("dp_loglog_slope", "dp_dense_loglog_slope",
                    "prescan_loglog_slope"):
            assert math.isfinite(res.params[key])
        assert res.params["dp_speedup_at_largest_n"] > 0

    def test_resumes_checkpoints_that_carry_a_batched_curve(self, tmp_path):
        # checkpoints written while E9 still timed a batched-kernel curve
        # carry t_batched / dp_batched_seconds; they must be reused, not
        # re-timed, and the extra column must not leak into the rows
        import json

        first = run_scaling(sizes=(60, 120), num_servers=6, checkpoint=tmp_path)
        path = tmp_path / "CHECKPOINT_scaling.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            rec["payload"]["t_batched"] = 1.0
            rec["payload"]["row"]["dp_batched_seconds"] = 1.0
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))

        resumed = run_scaling(
            sizes=(60, 120), num_servers=6, checkpoint=tmp_path, resume=True
        )
        assert "resumed from checkpoint: 2 point(s) reused" in resumed.notes
        assert resumed.rows == first.rows
        assert resumed.series == first.series

    def test_store_curve_rides_along(self, tmp_path):
        # store=True adds a store-backed sharded curve (asserted
        # bit-identical to the in-memory solver inside the harness),
        # merged into the same per-size rows; a caller's store_dir keeps
        # its stores
        res = run_scaling(
            sizes=(60, 120), num_servers=8, repeats=1,
            store=True, store_dir=tmp_path / "stores",
        )
        assert "DP_Greedy (store-backed, sharded)" in res.series
        assert all("store_seconds" in row for row in res.rows)
        assert sorted(p.name for p in (tmp_path / "stores").iterdir()) == [
            "n120", "n60"
        ]

    def test_store_curve_removes_its_temp_stores(self, tmp_path, monkeypatch):
        # without store_dir the stores go to a temporary directory that
        # is removed afterwards, on return and on error alike
        import tempfile

        import repro.engine.sharding as sharding

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run_scaling(sizes=(60, 120), num_servers=8, repeats=1, store=True)
        assert not list(tmp_path.glob("repro-scaling-store-*"))

        def fail(*args, **kwargs):
            raise RuntimeError("solve failed")

        monkeypatch.setattr(sharding, "solve_dp_greedy_sharded", fail)
        with pytest.raises(RuntimeError, match="solve failed"):
            run_scaling(sizes=(60,), num_servers=8, repeats=1, store=True)
        assert not list(tmp_path.glob("repro-scaling-store-*"))


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


class TestHarnessMetrics:
    """The --metrics surface of the sweep harnesses (repro.obs)."""

    @pytest.fixture(scope="class")
    def res(self):
        return run_fig11(
            n_requests=60, repeats=1, num_servers=8, metrics=True, memo=True
        )

    def test_snapshot_attached_with_schema(self, res):
        assert res.metrics is not None
        assert res.metrics["schema"] == "repro.obs/metrics/v3"

    def test_one_observation_per_dpg_solve(self, res):
        # fig11 runs one DP_Greedy solve per (jaccard, repeat) point
        assert res.metrics["aggregate"]["runs"] == len(res.rows)

    def test_every_run_reconciles(self, res):
        assert res.metrics["aggregate"]["max_reconciliation_error"] <= 1e-9
        for run in res.metrics["runs"]:
            assert run["reconciliation_error"] <= 1e-9
            assert run["total_cost"] == pytest.approx(run["attributed_total"])

    def test_runs_tagged_with_sweep_point(self, res):
        points = {(r["point"]["jaccard"], r["point"]["repeat"])
                  for r in res.metrics["runs"]}
        assert len(points) == len(res.metrics["runs"])

    def test_save_writes_metrics_artefact(self, res, tmp_path):
        import json

        res.save(tmp_path)
        path = tmp_path / "METRICS_fig11.json"
        assert path.exists()
        on_disk = json.loads(path.read_text())
        assert on_disk["schema"] == "repro.obs/metrics/v3"
        assert on_disk["aggregate"]["runs"] == len(res.rows)

    def test_metrics_off_by_default(self):
        res = run_fig12(
            rhos=(1.0,), n_requests=40, repeats=1, num_servers=6
        )
        assert res.metrics is None

    def test_fig13_metrics(self):
        res = run_fig13(
            alphas=(0.8,), jaccards=(0.3,), n_requests=40, repeats=1,
            num_servers=6, metrics=True,
        )
        assert res.metrics["aggregate"]["runs"] == 1
        assert res.metrics["aggregate"]["max_reconciliation_error"] <= 1e-9
