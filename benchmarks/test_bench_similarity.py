"""Benchmark: the threshold-aware sparse similarity join of Phase 1.

A wide catalog (many items, bounded request sizes) is exactly the regime
the sparse join targets: the dense path pays an ``n x k`` incidence
matrix plus a ``k x k`` BLAS product plus a ``k(k-1)/2`` pair sort, while
the inverted-index join touches only ``O(sum |D_i|^2)`` nonzero cells and
sorts only the threshold survivors.  The acceptance case pins a >= 3x
win end-to-end (stats build + thresholded pair generation) with byte-
identical output, and the micro-benchmarks time both backends.
"""

from __future__ import annotations

import time

from repro.correlation import (
    correlation_stats,
    greedy_pair_packing,
    sparse_correlation_stats,
)
from repro.trace.workload import zipf_item_workload

THETA = 0.3

#: Wide-catalog workload: 6000 requests over 600 items (the dense join
#: materialises a 6000 x 600 incidence and 179700 pairs; the sparse join
#: sees ~2 items per request).
def _workload():
    return zipf_item_workload(
        6000, 40, 600, seed=7, horizon=6000.0, zipf_s=1.05, cooccurrence=0.5
    )


def _dense_join(seq):
    stats = correlation_stats(seq)
    return stats, stats.pairs_by_similarity(threshold=THETA)


def _sparse_join(seq):
    stats = sparse_correlation_stats(seq)
    return stats, stats.pairs_by_similarity(threshold=THETA)


def test_bench_similarity_dense_wide(benchmark):
    seq = _workload()
    # pinned rounds: auto-calibration makes the timed wall time jitter
    # by the round count
    _, pairs = benchmark.pedantic(_dense_join, args=(seq,), rounds=10)
    assert pairs  # the workload has packable pairs above theta


def test_bench_similarity_sparse_wide(benchmark):
    seq = _workload()
    _, pairs = benchmark.pedantic(_sparse_join, args=(seq,), rounds=10)
    assert pairs


def test_bench_similarity_sparse_vs_dense_speedup():
    """Acceptance case: >= 3x on the wide catalog, identical output."""
    seq = _workload()

    def best_of(fn):
        best = float("inf")
        value = None
        for _ in range(3):
            t0 = time.perf_counter()
            value = fn(seq)
            best = min(best, time.perf_counter() - t0)
        return best, value

    t_dense, (dense_stats, dense_pairs) = best_of(_dense_join)
    t_sparse, (sparse_stats, sparse_pairs) = best_of(_sparse_join)

    assert sparse_pairs == dense_pairs  # same similarities, same order
    plan_dense = greedy_pair_packing(dense_stats, THETA)
    plan_sparse = greedy_pair_packing(sparse_stats, THETA)
    assert plan_sparse == plan_dense
    assert sparse_stats.join_counters(THETA) == dense_stats.join_counters(THETA)

    speedup = t_dense / t_sparse
    assert speedup >= 3.0, (
        f"sparse join only {speedup:.1f}x faster than dense "
        f"({t_sparse * 1e3:.1f}ms vs {t_dense * 1e3:.1f}ms)"
    )
