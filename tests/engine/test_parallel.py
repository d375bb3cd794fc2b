"""The parallel/memoized execution engine must be invisible in the output.

Every test here pins the engine-served results -- across worker counts,
pool backends, and memo states -- to the classic serial loop, down to
dataclass equality of the per-unit reports (which compares every float
bit-for-bit).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cache.model import CostModel
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.memo import SolverMemo
from repro.engine.parallel import (
    AUTO_SERIAL_NODES,
    _resolve_backend,
    serve_plan,
)
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
            dict(parallel=True),
            dict(memo=SolverMemo()),
        ):
            got = _serial(seq, model, **kwargs)
            assert got.total_cost == ref.total_cost
            assert got.ave_cost == ref.ave_cost
            assert got.plan == ref.plan
            assert got.reports == ref.reports

    def test_thread_pool_matches_serial(self, unit_model):
        seq = _workload()
        ref = _serial(seq, unit_model)
        got = solve_dp_greedy(
            seq, unit_model, theta=THETA, alpha=ALPHA, workers=3
        )
        assert got.reports == ref.reports
        assert got.engine_stats.pool in ("thread", "serial")

    def test_process_pool_matches_serial(self, unit_model):
        seq = _workload()
        plan = _serial(seq, unit_model).plan
        ref, _ = serve_plan(seq, plan, unit_model, ALPHA, workers=1)
        got, stats = serve_plan(
            seq, plan, unit_model, ALPHA, workers=2, pool="process"
        )
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
    def test_serial_path_has_no_engine_stats(self, unit_model):
        seq = _workload(n=40, items=3)
        assert _serial(seq, unit_model).engine_stats is None
        assert _serial(seq, unit_model, workers=1).engine_stats is not None

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
        seq = _workload(n=20, items=2)
        plan = _serial(seq, unit_model).plan
        with pytest.raises(ValueError, match="pool"):
            serve_plan(seq, plan, unit_model, ALPHA, pool="gpu")

    def test_stats_shape(self, unit_model):
        seq = _workload(n=60, items=5)
        got = _serial(seq, unit_model, workers=2)
        s = got.engine_stats
        assert s.units == s.packages + s.singletons
        assert s.units == len(got.reports)
        assert s.dispatched == s.units  # no memo -> everything dispatched
        assert s.memo_hit_rate == 0.0


class TestExecutorHardening:
    """_make_executor must behave identically on fork-less platforms and
    must actually batch process-pool dispatch via ``chunksize``."""

    def test_chunksize_reaches_process_pool_map(self, unit_model, monkeypatch):
        # regression guard: ex.map(..., chunksize=) silently ignores a
        # typo'd kwarg only if we never assert it arrives
        import repro.engine.parallel as parallel

        seen = {}

        class _RecordingExecutor:
            def map(self, fn, *iterables, **kwargs):
                seen.update(kwargs)
                return map(fn, *iterables)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def fake_make(kind, workers, seq, model, alpha, build_schedules,
                      attribute, trace=False, telemetry=False):
            # run the worker initializer in-process so _serve_unit_in_worker
            # finds its globals
            parallel._init_worker(
                seq, model, alpha, build_schedules, attribute, trace, telemetry
            )
            return _RecordingExecutor()

        monkeypatch.setattr(parallel, "_make_executor", fake_make)
        seq = _workload(n=60, items=5)
        plan = _serial(seq, unit_model).plan
        serve_plan(seq, plan, unit_model, ALPHA, workers=2, pool="process")
        assert seen.get("chunksize", 0) >= 1

    def test_start_method_defaults_to_fork_when_available(self, monkeypatch):
        import multiprocessing

        from repro.engine.parallel import _pool_start_method

        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        expected = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert _pool_start_method() == expected

    def test_start_method_env_override(self, monkeypatch):
        from repro.engine.parallel import _pool_start_method

        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert _pool_start_method() == "spawn"

    def test_start_method_bad_override_rejected(self, monkeypatch):
        from repro.engine.parallel import _pool_start_method

        monkeypatch.setenv("REPRO_START_METHOD", "osmosis")
        with pytest.raises(ValueError, match="REPRO_START_METHOD"):
            _pool_start_method()

    def test_spawn_process_pool_matches_serial(self, unit_model, monkeypatch):
        # the explicit fork-unavailable path (macOS/Windows default):
        # spawn workers re-import the module, so everything shipped to
        # them must be picklable and the result must stay bit-identical
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        seq = _workload(n=60, items=5)
        plan = _serial(seq, unit_model).plan
        ref, _ = serve_plan(seq, plan, unit_model, ALPHA, workers=1)
        got, stats = serve_plan(
            seq, plan, unit_model, ALPHA, workers=2, pool="process"
        )
        assert got == ref
        assert stats.pool == "process"


class TestPoolHeuristic:
    def test_small_workload_stays_serial(self):
        workers, kind = _resolve_backend(None, AUTO_SERIAL_NODES - 1, 8, None)
        assert (workers, kind) == (1, "serial")

    def test_workers_capped_by_units(self):
        workers, _ = _resolve_backend(8, 10**6, 3, None)
        assert workers == 3

    def test_explicit_workers_one_is_serial(self):
        assert _resolve_backend(1, 10**9, 50, None) == (1, "serial")

    def test_large_workload_prefers_processes(self):
        _, kind = _resolve_backend(4, 10**6, 50, None)
        assert kind == "process"
