"""Benchmark E9: the O(mn^2)/O(mn) complexity claims of Section V-B.

The default DP backend is now the O(n*m) sparse frontier, so the study
checks *both* regimes: the dense reference sweep keeps its superlinear
slope (theory ~2 in n) while the sparse backend tracks the pre-scan's
near-linear growth, and the head-to-head case pins the >= 5x win at the
largest benchmarked n.
"""

from __future__ import annotations

import time

import pytest
from conftest import run_once

from repro.cache.model import CostModel
from repro.cache.optimal_dp import optimal_cost, solve_optimal
from repro.engine.prescan import PreScan
from repro.experiments import run_scaling
from repro.trace.workload import random_single_item_view

MODEL = CostModel(mu=1.0, lam=1.0)


def test_bench_scaling_study(benchmark):
    # at 400-3200 requests numpy's per-event call overhead still hides
    # most of the dense sweep's n^2 term: its slope reads 1.0-1.2 against
    # the sparse 0.75-1.0, so one burst of host load at one size could
    # flip them.  run_scaling alternates the two backends' repeats within
    # each size, so a burst lands on both curves alike, and best of 5
    # keeps each point near the machine's quiet time.
    result = run_once(
        benchmark, run_scaling, sizes=(400, 800, 1600, 3200), num_servers=16,
        repeats=5,
    )
    # superlinear dense reference (theory ~2), near-linear sparse DP and
    # pre-scan (theory ~1 in n at fixed m)
    assert result.params["dp_dense_loglog_slope"] > 1.0
    assert 0.4 < result.params["dp_loglog_slope"] < 2.0
    assert result.params["dp_loglog_slope"] < result.params["dp_dense_loglog_slope"]
    assert result.params["prescan_loglog_slope"] < 2.0
    assert (
        result.params["prescan_loglog_slope"]
        < result.params["dp_dense_loglog_slope"] + 0.5
    )
    # the headline: at the largest n the sparse frontier is far ahead
    assert result.params["dp_speedup_at_largest_n"] >= 3.0


def test_bench_dp_n500(benchmark):
    view = random_single_item_view(500, 50, seed=1, horizon=500.0)
    cost = benchmark(optimal_cost, view, MODEL)
    assert cost > 0


def test_bench_dp_n1000(benchmark):
    view = random_single_item_view(1000, 50, seed=1, horizon=1000.0)
    cost = benchmark(optimal_cost, view, MODEL)
    assert cost > 0


def test_bench_dp_sparse_n6400_m16(benchmark):
    """The sparse frontier at a scale the dense sweep cannot reach cheaply."""
    view = random_single_item_view(6400, 16, seed=1, horizon=6400.0)
    cost = benchmark(optimal_cost, view, MODEL)
    assert cost > 0


def test_bench_dp_sparse_vs_dense_speedup():
    """Acceptance case: >= 5x at the largest benchmarked n, equal costs.

    Timed by hand (best of 3) rather than via the pytest-benchmark
    fixture so both backends run inside one test and the ratio is
    asserted on the same machine state.
    """
    view = random_single_item_view(6400, 16, seed=1, horizon=6400.0)

    def best_of(fn, *args, **kwargs):
        best = float("inf")
        value = None
        for _ in range(3):
            t0 = time.perf_counter()
            value = fn(*args, **kwargs)
            best = min(best, time.perf_counter() - t0)
        return best, value

    t_dense, c_dense = best_of(optimal_cost, view, MODEL, backend="dense")
    t_sparse, c_sparse = best_of(optimal_cost, view, MODEL)
    assert c_sparse == c_dense  # bit-identical costs
    # full solve (decisions + backbone) agrees too
    r_sparse = solve_optimal(view, MODEL, build_schedule=False)
    r_dense = solve_optimal(view, MODEL, build_schedule=False, backend="dense")
    assert r_sparse.cost == r_dense.cost == c_sparse
    assert r_sparse.decisions == r_dense.decisions
    speedup = t_dense / t_sparse
    assert speedup >= 5.0, (
        f"sparse frontier only {speedup:.1f}x faster than dense "
        f"({t_sparse * 1e3:.1f}ms vs {t_dense * 1e3:.1f}ms)"
    )


def test_bench_prescan_n2000_m50(benchmark):
    view = random_single_item_view(2000, 50, seed=1, horizon=2000.0)
    ps = benchmark(PreScan, view)
    assert ps.recent.shape == (2000, 50)


def test_bench_ilp_certification_n200(benchmark):
    """The independent ILP certifier at its test scale."""
    from tests.oracles import ilp_optimal_cost

    view = random_single_item_view(200, 30, seed=3, horizon=200.0)
    cost = benchmark(ilp_optimal_cost, view, MODEL)
    assert cost == pytest.approx(optimal_cost(view, MODEL))
