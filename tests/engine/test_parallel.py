"""The parallel/memoized execution engine must be invisible in the output.

Every test here pins the engine-served results -- across worker counts,
the serial rung and the process pool, and memo states -- to the classic
serial loop, down to dataclass equality of the per-unit reports (which
compares every float bit-for-bit).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cache.model import CostModel
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.engine.memo import SolverMemo
from repro.engine.parallel import _resolve_backend, serve_plan
from repro.engine.sharding import solve_dp_greedy_sharded
from repro.engine.resilience import ResilienceConfig
from repro.trace.workload import zipf_item_workload

from ..conftest import cost_models, multi_item_sequences

THETA, ALPHA = 0.3, 0.8


def _workload(n=160, items=8, seed=11):
    return zipf_item_workload(
        n, 12, items, seed=seed, cooccurrence=0.45
    )


def _serial(seq, model, **kw):
    return solve_dp_greedy(seq, model, theta=THETA, alpha=ALPHA, **kw)


class TestEquivalence:
    """Engine output == serial output, dataclass-exact."""

    @settings(max_examples=40, deadline=None)
    @given(seq=multi_item_sequences(max_requests=14), model=cost_models())
    def test_property_engine_matches_serial(self, seq, model):
        ref = _serial(seq, model)
        for kwargs in (
            dict(workers=1),
            dict(workers=2),
            dict(memo=SolverMemo()),
        ):
            got = _serial(seq, model, **kwargs)
            assert got.total_cost == ref.total_cost
            assert got.ave_cost == ref.ave_cost
            assert got.plan == ref.plan
            assert got.reports == ref.reports

    def test_process_pool_matches_serial(self, unit_model):
        seq = _workload()
        plan = _serial(seq, unit_model).plan
        ref, _ = serve_plan(seq, plan, unit_model, ALPHA, workers=1)
        got, stats = serve_plan(seq, plan, unit_model, ALPHA, workers=2)
        assert got == ref
        assert stats.pool == "process"
        assert stats.workers == 2

    def test_schedules_survive_the_pool(self, unit_model):
        seq = _workload(n=60, items=4)
        ref = _serial(seq, unit_model, build_schedules=True)
        got = _serial(seq, unit_model, build_schedules=True, workers=2)
        assert got.reports == ref.reports
        assert all(r.package_schedule is not None for r in got.reports)

    def test_memoized_rerun_matches_and_hits(self, unit_model):
        seq = _workload()
        memo = SolverMemo()
        ref = _serial(seq, unit_model)
        first = _serial(seq, unit_model, memo=memo)
        second = _serial(seq, unit_model, memo=memo)
        assert first.reports == ref.reports
        assert second.reports == ref.reports
        assert first.engine_stats.memo_hits == 0
        assert second.engine_stats.memo_hits == second.engine_stats.units
        assert second.engine_stats.dispatched == 0

    def test_memo_shared_across_theta_points(self, unit_model):
        seq = _workload()
        memo = SolverMemo()
        for theta in (0.2, 0.4, 0.6):
            got = solve_dp_greedy(
                seq, unit_model, theta=theta, alpha=ALPHA, memo=memo
            )
            ref = solve_dp_greedy(seq, unit_model, theta=theta, alpha=ALPHA)
            assert got.reports == ref.reports
        assert memo.hits > 0


class TestEngineApi:
    def test_default_path_reports_engine_stats(self, unit_model):
        # every solve runs through the engine: the default one on the
        # serial rung, one dispatch per unit
        seq = _workload(n=40, items=3)
        got = _serial(seq, unit_model)
        es = got.engine_stats
        assert es.pool == "serial"
        assert es.workers == 1
        assert es.dispatched == es.units == len(got.reports)
        assert _serial(seq, unit_model, workers=1).engine_stats == es

    def test_memo_true_uses_default_memo(self, unit_model):
        from repro.engine.memo import get_default_memo

        get_default_memo().clear()
        seq = _workload(n=40, items=3)
        got = _serial(seq, unit_model, memo=True)
        assert got.engine_stats.memo_misses == got.engine_stats.units
        assert len(get_default_memo()) > 0
        get_default_memo().clear()

    def test_bad_memo_type_rejected(self, unit_model):
        seq = _workload(n=20, items=2)
        with pytest.raises(TypeError, match="memo"):
            _serial(seq, unit_model, memo="yes")

    def test_bad_workers_rejected(self, unit_model):
        seq = _workload(n=20, items=2)
        with pytest.raises(ValueError, match="workers"):
            _serial(seq, unit_model, workers=0)

    def test_bad_pool_rejected(self, unit_model):
        # one pool kind, picked by ``workers``: there is no pool= to pass
        seq = _workload(n=20, items=2)
        plan = _serial(seq, unit_model).plan
        with pytest.raises(TypeError, match="pool"):
            serve_plan(seq, plan, unit_model, ALPHA, pool="thread")

    def test_stats_shape(self, unit_model):
        seq = _workload(n=60, items=5)
        got = _serial(seq, unit_model, workers=2)
        s = got.engine_stats
        assert s.units == s.packages + s.singletons
        assert s.units == len(got.reports)
        assert s.dispatched == s.units  # no memo -> everything dispatched
        assert s.memo_hit_rate == 0.0


class TestExecutorHardening:
    """_make_executor must behave identically on fork-less platforms, and
    pool rungs must group units instead of paying one future per unit."""

    @pytest.mark.parametrize(
        "chaos", [None, FaultPlan(seed=7, crash=0.5)], ids=["clean", "crash"]
    )
    def test_pool_rungs_dispatch_at_most_four_groups_per_worker(
        self, unit_model, monkeypatch, chaos
    ):
        import repro.engine.resilience as resilience

        real_make = resilience._make_executor
        submitted = []

        class _CountingExecutor:
            def __init__(self, ex):
                self._ex = ex

            def submit(self, fn, *args, **kwargs):
                submitted.append(args[0])  # the dispatch: a group
                return self._ex.submit(fn, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                self._ex.shutdown(*args, **kwargs)

        monkeypatch.setattr(
            resilience,
            "_make_executor",
            lambda *a, **kw: _CountingExecutor(real_make(*a, **kw)),
        )
        seq = zipf_item_workload(400, 12, 40, seed=3, cooccurrence=0.2)
        ref = _serial(seq, unit_model)
        assert len(ref.reports) > 4 * 2
        got = _serial(
            seq, unit_model, workers=2,
            resilience=ResilienceConfig(chaos=chaos) if chaos else None,
        )
        assert got.total_cost == ref.total_cost
        assert got.reports == ref.reports
        es = got.engine_stats
        assert (es.pool, es.workers, es.dispatched) == ("process", 2, es.units)
        assert 0 < len(set(submitted)) <= 4 * 2
        if chaos is None:
            assert len(submitted) <= 4 * 2
        else:
            assert es.retries > 0

    def test_start_method_defaults_to_fork_when_available(self, monkeypatch):
        import multiprocessing

        from repro.engine.resilience import _pool_start_method

        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        expected = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert _pool_start_method() == expected

    def test_start_method_env_override(self, monkeypatch):
        from repro.engine.resilience import _pool_start_method

        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert _pool_start_method() == "spawn"

    def test_start_method_bad_override_rejected(self, monkeypatch):
        from repro.engine.resilience import _pool_start_method

        monkeypatch.setenv("REPRO_START_METHOD", "osmosis")
        with pytest.raises(ValueError, match="REPRO_START_METHOD"):
            _pool_start_method()

    def test_spawn_process_pool_matches_serial(self, unit_model, monkeypatch):
        # the explicit fork-unavailable path (macOS/Windows default):
        # spawn workers re-import the module, so everything shipped to
        # them -- the reporter recipe, attribution on or off -- must be
        # picklable and the result must stay bit-identical
        from repro.obs import Observer

        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        seq = _workload(n=60, items=5)
        plan = _serial(seq, unit_model).plan
        for ledger in (False, True):
            observers = [Observer(ledger=True) if ledger else None for _ in range(2)]
            for observer in filter(None, observers):
                observer.begin_run()
            ref, _ = serve_plan(
                seq, plan, unit_model, ALPHA, workers=1, observer=observers[0]
            )
            got, stats = serve_plan(
                seq, plan, unit_model, ALPHA, workers=2, observer=observers[1]
            )
            assert got == ref
            assert (stats.pool, stats.pool_fallbacks) == ("process", 0)
            if ledger:
                assert all(r.attribution is not None for r in got)
                total = sum(r.total for r in got)
                assert observers[1].run.ledger.reconcile(total) <= 1e-9


class TestPoolHeuristic:
    """Serial unless asked: auto mode never forks a pool; ``workers >= 2``
    is a process pool as wide as the pending units allow."""

    def test_small_workload_stays_serial(self):
        assert _resolve_backend(None, 8) == (1, "serial")

    def test_workers_capped_by_units(self):
        assert _resolve_backend(8, 3) == (3, "process")
        assert _resolve_backend(8, 1) == (1, "serial")

    def test_explicit_workers_one_is_serial(self):
        assert _resolve_backend(1, 50) == (1, "serial")

    @pytest.mark.parametrize("route", ["memo", "sharded"])
    def test_auto_mode_stays_serial_above_the_old_pool_threshold(
        self, unit_model, route
    ):
        # over 24k pending request nodes: auto mode once forked a process
        # pool at 16,384; it now runs serially, with the reports of an
        # explicit two-process solve
        seq = zipf_item_workload(24_000, 8, 48, seed=5, cooccurrence=0.3)
        assert sum(seq.item_counts().values()) >= 16_384

        def solve(**kw):
            if route == "memo":
                return _serial(seq, unit_model, memo=SolverMemo(), **kw)
            return solve_dp_greedy_sharded(
                seq, unit_model, theta=THETA, alpha=ALPHA, shards=4, **kw
            )

        auto = solve()
        assert (auto.engine_stats.pool, auto.engine_stats.workers) == ("serial", 1)
        pooled = solve(workers=2)
        assert (pooled.engine_stats.pool, pooled.engine_stats.workers) == (
            "process", 2
        )
        assert auto.total_cost == pooled.total_cost
        assert auto.reports == pooled.reports
