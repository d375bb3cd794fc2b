"""Fast sanity checks of the engine's performance machinery.

Marked ``perf_smoke``: these run in tier-1 (they are cheap) but can be
selected alone with ``-m perf_smoke`` as a pre-benchmark smoke screen.
They assert the *machinery* works -- memo hits happen, the pool path is
exercised, the scaling harness accepts tiny sizes -- not wall-clock
numbers, which belong to ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.cache.model import CostModel
from repro.engine.memo import SolverMemo
from repro.experiments.ablation import run_theta_ablation
from repro.experiments.scaling import run_scaling
from repro.trace.workload import zipf_item_workload

pytestmark = pytest.mark.perf_smoke


def test_scaling_harness_tiny_sizes():
    result = run_scaling(sizes=(60, 120), num_servers=6, seed=3)
    assert len(result.rows) == 2
    assert all(row["n"] in (60, 120) for row in result.rows)


def test_theta_sweep_memo_hit_rate_positive():
    result = run_theta_ablation(
        thetas=(0.1, 0.3, 0.5), n_per_pair=30, num_servers=10, memo=True
    )
    assert result.params["memo_hits"] > 0
    assert result.params["memo_hit_rate"] > 0.0


def test_parallel_path_runs_on_two_workers():
    from repro.core.dp_greedy import solve_dp_greedy

    seq = zipf_item_workload(150, 10, 8, seed=9, cooccurrence=0.4)
    model = CostModel(mu=1.0, lam=1.0)
    got = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, workers=2)
    ref = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
    assert got.engine_stats.workers == 2
    assert got.engine_stats.pool == "thread"
    assert got.total_cost == ref.total_cost


def test_memo_skips_pool_dispatch_on_rerun():
    from repro.core.dp_greedy import solve_dp_greedy

    seq = zipf_item_workload(120, 8, 6, seed=4, cooccurrence=0.4)
    model = CostModel(mu=2.0, lam=2.0)
    memo = SolverMemo()
    solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, workers=2, memo=memo)
    rerun = solve_dp_greedy(
        seq, model, theta=0.3, alpha=0.8, workers=2, memo=memo
    )
    assert rerun.engine_stats.dispatched == 0
    assert rerun.engine_stats.memo_hit_rate == 1.0
