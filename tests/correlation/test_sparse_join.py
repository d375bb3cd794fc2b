"""Equivalence of the sparse CSR join against the dense pass.

The sparse backend must reproduce the dense `correlation_stats` output
*exactly*: same counts, same co-occurrence, bit-identical Jaccard values
(both divide the same integers), the same deterministic pair ordering
including identifier tie-breaks, and therefore the same packing plans --
at every threshold, including the unfiltered back-compat path.  The
equivalence properties run the join on each drawn in-memory sequence
and on a trace store written from it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.model import CostModel
from repro.correlation import (
    SparseCorrelationStats,
    correlation_stats,
    greedy_group_packing,
    greedy_pair_packing,
    sparse_correlation_stats,
)
from repro.correlation.jaccard import pair_similarities
from repro.core.dp_greedy import solve_dp_greedy

from ..conftest import multi_item_sequences, stored

THRESHOLDS = (0.0, 0.3, 0.9)


def _sparse_joins(seq):
    """The sparse join of ``seq`` in memory and off a store written
    from it."""
    with stored(seq) as sseq:
        return [
            correlation_stats(seq, backend="sparse"),
            correlation_stats(sseq, backend="sparse"),
        ]


class TestBackendEquivalence:
    @given(seq=multi_item_sequences())
    @settings(max_examples=120, deadline=None)
    def test_matrices_identical(self, seq):
        d = correlation_stats(seq)
        for s in _sparse_joins(seq):
            assert isinstance(s, SparseCorrelationStats)
            assert s.items == d.items
            assert np.array_equal(s.counts, d.counts)
            assert np.array_equal(s.cooccurrence, d.cooccurrence)
            # bit-identical: both are the same int/int float64 division
            assert np.array_equal(s.jaccard, d.jaccard)

    @given(seq=multi_item_sequences())
    @settings(max_examples=120, deadline=None)
    def test_pair_ordering_identical_at_every_threshold(self, seq):
        d = correlation_stats(seq)
        for s in _sparse_joins(seq):
            assert s.pairs_by_similarity() == d.pairs_by_similarity()
            for theta in THRESHOLDS:
                assert s.pairs_by_similarity(
                    threshold=theta
                ) == d.pairs_by_similarity(threshold=theta)

    @given(seq=multi_item_sequences())
    @settings(max_examples=80, deadline=None)
    def test_packing_plans_identical(self, seq):
        d = correlation_stats(seq)
        for s in _sparse_joins(seq):
            for theta in THRESHOLDS:
                assert greedy_pair_packing(s, theta) == greedy_pair_packing(d, theta)
                assert greedy_group_packing(s, theta) == greedy_group_packing(
                    d, theta
                )

    @given(seq=multi_item_sequences())
    @settings(max_examples=60, deadline=None)
    def test_point_queries_identical(self, seq):
        d = correlation_stats(seq)
        for s in _sparse_joins(seq):
            for a in d.items:
                for b in d.items:
                    assert s.similarity(a, b) == d.similarity(a, b)
                    assert s.frequency(a, b) == d.frequency(a, b)

    @given(seq=multi_item_sequences())
    @settings(max_examples=60, deadline=None)
    def test_join_counters_identical(self, seq):
        d = correlation_stats(seq)
        for s in _sparse_joins(seq):
            for theta in (None, *THRESHOLDS):
                cd, cs = d.join_counters(theta), s.join_counters(theta)
                assert cd == cs
                k = len(d.items)
                assert cd["pairs_total"] == k * (k - 1) // 2
                assert 0 <= cd["candidates_emitted"] <= cd["pairs_total"]
                assert 0 <= cd["pairs_pruned"] <= cd["pairs_total"]


class TestThresholdSemantics:
    @given(seq=multi_item_sequences())
    @settings(max_examples=60, deadline=None)
    def test_threshold_is_strict_prefix_of_full_list(self, seq):
        for stats in (correlation_stats(seq), sparse_correlation_stats(seq)):
            full = stats.pairs_by_similarity()
            for theta in THRESHOLDS:
                filtered = stats.pairs_by_similarity(threshold=theta)
                assert filtered == [p for p in full if p[0] > theta]

    def test_pair_similarities_threshold_fast_path(self):
        from repro.trace.workload import zipf_item_workload

        seq = zipf_item_workload(200, 8, 12, seed=5, cooccurrence=0.5)
        full = pair_similarities(seq)
        items = tuple(sorted(seq.items))
        assert set(full) == {
            (a, b) for i, a in enumerate(items) for b in items[i + 1 :]
        }
        pruned = pair_similarities(seq, threshold=0.3)
        assert pruned == {pair: j for pair, j in full.items() if j > 0.3}

    def test_unknown_backend_rejected(self):
        from repro.trace.workload import zipf_item_workload

        seq = zipf_item_workload(20, 4, 3, seed=1)
        with pytest.raises(ValueError, match="backend"):
            correlation_stats(seq, backend="blocked")

    def test_index_of_unknown_item_raises(self):
        from repro.trace.workload import zipf_item_workload

        seq = zipf_item_workload(20, 4, 3, seed=1)
        s = sparse_correlation_stats(seq)
        with pytest.raises(ValueError, match="not in the sequence"):
            s.index_of(999)


class TestEndToEnd:
    @given(seq=multi_item_sequences())
    @settings(max_examples=40, deadline=None)
    def test_solve_dp_greedy_backends_agree(self, seq):
        # a plan packed off the dense oracle solves exactly like the
        # default solve, whose join is the sparse one
        model = CostModel(mu=1.0, lam=1.0)
        ref = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        plan = greedy_pair_packing(correlation_stats(seq, backend="dense"), 0.3)
        got = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, plan=plan)
        assert got.plan == ref.plan
        assert got.reports == ref.reports
        assert got.total_cost == ref.total_cost
        assert isinstance(ref.stats, SparseCorrelationStats)

    def test_join_counters_reach_metrics(self):
        from repro.obs import Observer
        from repro.trace.workload import zipf_item_workload

        seq = zipf_item_workload(150, 8, 10, seed=3, cooccurrence=0.5)
        model = CostModel(mu=1.0, lam=1.0)
        observer = Observer(ledger=True)
        observer.begin_run(case="sparse-join")
        solve_dp_greedy(seq, model, theta=0.3, alpha=0.8, observer=observer)
        counters = observer.metrics()["runs"][0]["counters"]
        k = len(seq.items)
        assert counters["phase1.pairs_total"] == k * (k - 1) // 2
        assert counters["phase1.candidates_emitted"] >= len(
            solve_dp_greedy(seq, model, theta=0.3, alpha=0.8).plan.packages
        )
        assert (
            counters["phase1.pairs_pruned"]
            <= counters["phase1.pairs_total"]
        )

    def test_external_plan_skips_join_counters(self):
        from repro.obs import Observer
        from repro.trace.workload import zipf_item_workload

        seq = zipf_item_workload(80, 6, 6, seed=4, cooccurrence=0.5)
        model = CostModel(mu=1.0, lam=1.0)
        plan = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8).plan
        observer = Observer(ledger=True)
        observer.begin_run(case="external-plan")
        res = solve_dp_greedy(
            seq, model, theta=0.3, alpha=0.8, plan=plan, observer=observer
        )
        counters = observer.metrics()["runs"][0]["counters"]
        assert "phase1.pairs_total" not in counters
        # the join still runs: the result carries its statistics
        assert res.stats is not None
