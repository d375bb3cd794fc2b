"""The runtime leg against the real engine.

A runtime observer on a solve ends up holding real latency samples,
progress counts, stall flags, and (for process pools) worker resource
stats.  That it never perturbs the answer is pinned for every leg and
route by ``tests/obs/test_observer.py``; ``TestBitIdentity`` keeps the
runtime-leg checks of the engine configurations outside that matrix:
the classic solve, both rungs at an explicit width, the resilient
dispatcher without faults, and a crash storm on a process pool.
"""

from __future__ import annotations

import pytest

from repro.cache.model import CostModel
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.engine.resilience import ResilienceConfig
from repro.obs.observer import Observer, active, install
from repro.obs.telemetry import H_DISPATCH, H_SOLVE
from repro.trace.workload import zipf_item_workload

THETA, ALPHA = 0.3, 0.8
_MODEL = CostModel(mu=1.0, lam=1.0)


@pytest.fixture(scope="module")
def seq():
    return zipf_item_workload(160, 8, 10, seed=3, cooccurrence=0.4)


@pytest.fixture(scope="module")
def baseline(seq):
    return solve_dp_greedy(seq, _MODEL, theta=THETA, alpha=ALPHA)


def _hub(**settings):
    return Observer(runtime=True, sample_interval=10.0, **settings)


class TestBitIdentity:
    def test_classic_serial_with_telemetry(self, seq, baseline):
        tele = _hub()
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, observer=tele
        )
        assert got.total_cost == baseline.total_cost
        assert got.plan.packages == baseline.plan.packages
        lat = tele.cumulative_latency()
        assert lat[H_SOLVE]["count"] >= 1

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_engine_pools_with_telemetry(self, seq, baseline, workers):
        tele = _hub()
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=workers,
            observer=tele,
        )
        assert got.total_cost == baseline.total_cost
        assert tele.cumulative_latency()[H_SOLVE]["count"] >= 1

    def test_resilient_dispatch_with_telemetry(self, seq, baseline):
        tele = _hub()
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            observer=tele,
            resilience=ResilienceConfig(retries=2, chaos=False),
        )
        assert got.total_cost == baseline.total_cost
        lat = tele.cumulative_latency()
        assert lat[H_DISPATCH]["count"] >= 1

    def test_chaos_retries_with_telemetry_still_converge(self, seq, baseline):
        tele = _hub()
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            observer=tele,
            resilience=ResilienceConfig(
                retries=3, chaos=FaultPlan(seed=5, crash=0.5)
            ),
        )
        assert got.total_cost == baseline.total_cost
        assert tele.board.retries >= 1


class TestProgressAndStats:
    def test_board_counts_every_unit(self, seq):
        tele = _hub()
        solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            observer=tele,
        )
        snap = tele.board.snapshot()
        assert snap["total"] >= 1
        assert snap["done"] == snap["total"]
        assert snap["in_flight"] == 0
        assert snap["failed"] == 0

    def test_process_pool_ships_worker_stats(self, seq):
        tele = _hub()
        solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            observer=tele,
        )
        workers = tele.resources_snapshot()["workers"]
        assert workers  # at least one worker reported usage
        for rec in workers.values():
            assert rec["peak_rss_bytes"] > 0

    def test_engine_stats_surface_stalls(self, seq):
        tele = _hub(stall_after=0.01)
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            observer=tele,
            resilience=ResilienceConfig(
                retries=1,
                chaos=FaultPlan(seed=1, delay=1.0, delay_seconds=0.08),
            ),
        )
        assert got.engine_stats.stalls >= 1
        assert tele.board.stalls == got.engine_stats.stalls

    def test_stall_free_run_reports_zero(self, seq):
        tele = _hub(stall_after=30.0)
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            observer=tele,
            resilience=ResilienceConfig(retries=1, chaos=False),
        )
        assert got.engine_stats.stalls == 0


class TestActiveHubPickup:
    def test_solver_uses_installed_hub(self, seq, baseline):
        tele = _hub()
        prev = install(tele)
        try:
            got = solve_dp_greedy(seq, _MODEL, theta=THETA, alpha=ALPHA)
        finally:
            install(prev)
        assert got.total_cost == baseline.total_cost
        assert tele.cumulative_latency()[H_SOLVE]["count"] >= 1
        assert active() is not tele

    def test_started_hub_is_left_running(self, seq):
        with _hub() as tele:
            solve_dp_greedy(
                seq, _MODEL, theta=THETA, alpha=ALPHA, observer=tele
            )
            assert tele.started  # solver must not stop a borrowed hub
        assert not tele.started
