"""Benchmark of the Phase-2 execution engine (pool + solver memo).

The headline comparison mirrors how the engine is used by the sweep
harnesses: a theta sweep over a fixed Zipf workload, the default serial
solve vs the 4-worker memoized engine.  On a theta sweep the memo is the
dominant win -- singleton sub-problems are identical across sweep points,
so every point after the first serves mostly from cache -- which also
makes the >= 2x acceptance bar meaningful on a single-core box.  A floor on
the automatic choice rides along: with ``workers`` unset the engine
stays serial, memo or not.
"""

from __future__ import annotations

import time

from repro.cache.model import CostModel
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.memo import SolverMemo
from repro.trace.workload import zipf_item_workload

MODEL = CostModel(mu=2.0, lam=3.0)
ALPHA = 0.8
THETAS = (0.3, 0.4, 0.5, 0.6, 0.7)


def _workload():
    # 40 items with low co-occurrence: >= 32 serving units at every
    # theta in the sweep; 80 servers make each unit's O(n*m) DP dwarf
    # the O(n) per-unit bookkeeping.
    return zipf_item_workload(
        9_000, 80, 40, seed=42, cooccurrence=0.2, zipf_s=0.6
    )


def _sweep(seq, **engine_kwargs):
    t0 = time.perf_counter()
    results = [
        solve_dp_greedy(seq, MODEL, theta=th, alpha=ALPHA, **engine_kwargs)
        for th in THETAS
    ]
    return time.perf_counter() - t0, results


def test_bench_parallel_engine_vs_serial():
    seq = _workload()

    t_serial, serial_results = _sweep(seq)

    memo = SolverMemo()
    t_engine, engine_results = _sweep(seq, workers=4, memo=memo)

    # the engine must be invisible in the output ...
    for ref, got in zip(serial_results, engine_results):
        assert got.total_cost == ref.total_cost
        assert got.reports == ref.reports

    # ... and worth its keep: >= 2x on the sweep, >= 50% memo hit rate
    speedup = t_serial / t_engine
    units = [r.engine_stats.units for r in engine_results]
    assert min(units) >= 32
    assert engine_results[0].engine_stats.workers == 4
    assert memo.hit_rate >= 0.5
    assert speedup >= 2.0, (
        f"memoized 4-worker sweep {speedup:.2f}x the serial sweep; bar is 2x"
    )


def test_bench_parallel_auto_choice_is_serial():
    # the floor on the automatic choice: no process pool beat the serial
    # rung on a 2-core box, so with ``workers`` unset the engine never
    # forks one -- not on the plain sweep, and not once a memo is set
    seq = _workload()
    _, plain = _sweep(seq)
    _, memoized = _sweep(seq, memo=SolverMemo())
    for ref, got in zip(plain, memoized):
        assert got.reports == ref.reports
    for result in plain + memoized:
        assert (result.engine_stats.pool, result.engine_stats.workers) == (
            "serial", 1
        )
