"""Integration tests: the observability layer against the real solvers.

The centrepiece is the reconciliation property: for *any* workload,
cost model, theta, alpha, and engine configuration, the ledger's
per-action charges must sum to the scalar ``total_cost`` the solver
reports -- the observability layer is a self-audit of the cost
accounting, not a parallel estimate of it.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import CostModel
from repro.core import dp_greedy as dpg_mod
from repro.core.dp_greedy import solve_dp_greedy
from repro.obs import METRICS_SCHEMA, Observer, write_metrics
from repro.obs.ledger import MODE_ACTIONS
from repro.trace.workload import correlated_pair_sequence

from ..conftest import cost_models, multi_item_sequences

#: Engine configurations the property sweeps; "serial" is the classic
#: in-process path, the rest exercise serve_plan's pools and the memo.
_CONFIGS = {
    "serial": dict(),
    "engine-serial": dict(workers=1),
    "process": dict(workers=2),
    "memo": dict(workers=1, memo=True),
}


def _solve_observed(seq, model, theta, alpha, config):
    observer = Observer(ledger=True)
    observer.begin_run(config=config)
    result = solve_dp_greedy(
        seq, model, theta=theta, alpha=alpha, observer=observer, **_CONFIGS[config]
    )
    return result, observer.runs[-1], observer


class TestModeActionMap:
    def test_pins_the_solver_mode_strings(self):
        # obs cannot import core (circular), so the mapping is spelled
        # out by hand -- this pin breaks if the mode strings ever drift
        assert set(MODE_ACTIONS) == {
            dpg_mod.MODE_CACHE,
            dpg_mod.MODE_TRANSFER,
            dpg_mod.MODE_PACKAGE,
        }
        assert MODE_ACTIONS[dpg_mod.MODE_PACKAGE] == "ship"


class TestReconciliationProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seq=multi_item_sequences(max_requests=14),
        model=cost_models(),
        theta=st.sampled_from([0.0, 0.2, 0.3, 0.5, 0.8]),
        alpha=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
        config=st.sampled_from(["serial", "engine-serial", "memo"]),
    )
    def test_ledger_reconciles_with_total(self, seq, model, theta, alpha, config):
        result, run, _ = _solve_observed(seq, model, theta, alpha, config)
        # the solve already reconciled (it raises on a gap); re-check
        # the invariant explicitly against the public scalar
        assert run.total_cost == pytest.approx(result.total_cost)
        assert run.ledger.reconcile(result.total_cost) <= 1e-9
        # every charge serves a real request of the sequence
        n = len(seq)
        assert all(0 <= e.request_index < n for e in run.ledger.entries)

    @settings(max_examples=6, deadline=None)
    @given(
        seq=multi_item_sequences(max_requests=12),
        config=st.sampled_from(["engine-serial", "process"]),
    )
    def test_ledger_reconciles_across_pools(self, seq, config):
        model = CostModel(mu=1.0, lam=1.0)
        result, run, _ = _solve_observed(seq, model, 0.3, 0.8, config)
        assert run.ledger.reconcile(result.total_cost) <= 1e-9

    def test_memoized_second_run_still_reconciles(self):
        from repro.engine.memo import SolverMemo

        seq = correlated_pair_sequence(100, 6, 0.5, seed=3)
        model = CostModel(mu=1.0, lam=2.0)
        memo = SolverMemo()
        observer = Observer(ledger=True)
        for run in range(2):
            observer.begin_run(run=run)
            solve_dp_greedy(
                seq, model, theta=0.3, alpha=0.8, workers=1, memo=memo,
                observer=observer,
            )
        second = observer.metrics()["runs"][1]
        assert second["counters"]["engine.memo_hits"] > 0
        assert second["reconciliation_error"] <= 1e-9


class TestRunObservation:
    def test_phase_timers_cover_both_phases(self):
        seq = correlated_pair_sequence(80, 6, 0.5, seed=1)
        observer = Observer(ledger=True, spans=True)
        solve_dp_greedy(
            seq, CostModel(mu=1, lam=1), theta=0.3, alpha=0.8, observer=observer
        )
        run = observer.runs[-1]
        for phase in ("phase1.similarity", "phase1.packing", "phase2.serve"):
            assert phase in run.phases, phase
            # each phase is timed once, by its span
            assert run.phases[phase] == run.spans[phase]
        assert run.phases["phase2.serve"]["calls"] == 1
        assert run.spans["phase2.solve"]["calls"] == run.counters["phase2.units"]

    @pytest.mark.parametrize(
        "route",
        [
            dict(),
            dict(workers=2),
            dict(shards=3, workers=2),
        ],
        ids=["default", "process-groups", "shards"],
    )
    def test_span_aggregates_count_each_unit_once(self, route):
        # one phase2.solve span per unit on every route, including units
        # solved inside a pooled group or a shard, and none nested in
        # another -- so the aggregate's call count is the unit count
        from repro.engine.sharding import solve_dp_greedy_sharded
        from repro.trace.workload import zipf_item_workload

        seq = zipf_item_workload(400, 12, 40, seed=3, cooccurrence=0.2)
        solver = solve_dp_greedy_sharded if "shards" in route else solve_dp_greedy
        observer = Observer(ledger=True, spans=True, runtime=True)
        result = solver(
            seq, CostModel(mu=1, lam=1), theta=0.3, alpha=0.8,
            observer=observer, **route,
        )
        assert len(result.reports) > 4 * 2  # more units than a pool's group cap
        labels = [
            r.args["unit"] for r in observer.records() if r.name == "phase2.solve"
        ]
        assert len(set(labels)) == len(labels) == len(result.reports)
        assert all(label.startswith(("pkg(", "item(")) for label in labels)
        run = observer.runs[-1]
        assert run.spans["phase2.solve"]["calls"] == len(labels)
        # the latency histogram derives from the same spans
        assert run.latency["phase2.solve_seconds"]["count"] == len(labels)

    def test_counters_absorb_engine_and_memo(self):
        seq = correlated_pair_sequence(80, 6, 0.5, seed=2)
        _, run, _ = _solve_observed(seq, CostModel(mu=1, lam=1), 0.3, 0.8, "memo")
        counters = run.snapshot()["counters"]
        assert counters["engine.pool"] == "serial"
        assert "engine.memo_hit_rate" in counters
        assert "memo.entries" in counters

    def test_per_unit_breakdown_covers_plan(self):
        seq = correlated_pair_sequence(80, 6, 0.6, seed=4)
        result, run, _ = _solve_observed(
            seq, CostModel(mu=1, lam=1), 0.3, 0.8, "serial"
        )
        units = set(run.ledger.by_unit())
        expected = {tuple(sorted(rep.group)) for rep in result.reports}
        # every unit that charged anything is a real serving unit
        assert units <= expected


class TestMetricsV2Spans:
    def test_traced_run_lands_in_spans_sections(self):
        seq = correlated_pair_sequence(60, 5, 0.4, seed=9)
        model = CostModel(mu=1, lam=1)
        observer = Observer(ledger=True, spans=True)
        solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, observer=observer)
        snap = observer.metrics()
        assert snap["schema"] == "repro.obs/metrics/v3"
        run_spans = snap["runs"][0]["spans"]
        assert "phase1.similarity" in run_spans
        assert "phase2.solve" in run_spans
        assert set(run_spans["phase2.solve"]) == {"seconds", "calls"}
        # the aggregate folds the per-run spans
        assert snap["aggregate"]["spans"]["phase2.solve"]["calls"] == (
            run_spans["phase2.solve"]["calls"]
        )

    def test_untraced_run_has_empty_spans(self):
        seq = correlated_pair_sequence(60, 5, 0.4, seed=9)
        observer = Observer(ledger=True)
        solve_dp_greedy(
            seq, CostModel(mu=1, lam=1), theta=0.3, alpha=0.8, observer=observer
        )
        snap = observer.metrics()
        assert snap["runs"][0]["spans"] == {}
        assert snap["aggregate"]["spans"] == {}

    def test_sweep_tracer_windows_do_not_leak_across_runs(self):
        # one observer spanning a sweep: each run's spans section must
        # only cover its own solve, not the whole sweep
        seq = correlated_pair_sequence(60, 5, 0.4, seed=9)
        model = CostModel(mu=1, lam=1)
        observer = Observer(ledger=True, spans=True)
        for r in range(2):
            observer.begin_run(repeat=r)
            solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, observer=observer)
        runs = observer.metrics()["runs"]
        assert (
            runs[0]["spans"]["phase2.solve"]["calls"]
            == runs[1]["spans"]["phase2.solve"]["calls"]
        )


class TestMetricsCollector:
    def test_snapshot_schema_and_aggregate(self, tmp_path):
        seq = correlated_pair_sequence(60, 5, 0.4, seed=9)
        model = CostModel(mu=1, lam=1)
        observer = Observer(ledger=True)
        for r in range(2):
            observer.begin_run(jaccard=0.4, repeat=r)
            solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, observer=observer)
        snap = observer.metrics()
        assert snap["schema"] == METRICS_SCHEMA
        agg = snap["aggregate"]
        assert agg["runs"] == 2
        assert agg["max_reconciliation_error"] <= 1e-9
        assert set(agg["actions"]) <= {
            "cache", "transfer", "ship", "backbone", "first-copy"
        }
        assert snap["runs"][0]["point"] == {"jaccard": 0.4, "repeat": 0}

        path = write_metrics(snap, tmp_path / "METRICS_x.json")
        on_disk = json.loads(path.read_text())
        assert on_disk["schema"] == METRICS_SCHEMA
        assert on_disk["aggregate"]["runs"] == 2
