"""Tests for the on-line DP_Greedy extension."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cache.model import CostModel, Request, RequestSequence
from repro.cache.online import solve_online_ski_rental
from repro.core.baselines import solve_optimal_nonpacking
from repro.core.dp_greedy import solve_dp_greedy
from repro.core.online_dpg import OnlineDPGreedyState, solve_online_dp_greedy
from repro.trace.workload import correlated_pair_sequence

from ..conftest import cost_models, multi_item_sequences


class TestPackingDynamics:
    def test_high_cooccurrence_forms_a_package(self, unit_model):
        seq = correlated_pair_sequence(100, 8, 0.8, seed=1)
        res = solve_online_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        assert frozenset({1, 2}) in res.packages
        assert frozenset({1, 2}) in res.formation_times

    def test_uncorrelated_items_never_pack(self, unit_model):
        seq = correlated_pair_sequence(100, 8, 0.0, seed=2)
        res = solve_online_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        assert res.packages == ()

    def test_warmup_delays_packing(self, unit_model):
        # pair co-occurs from the very first request; with a large warm-up
        # the formation time must be later than with none
        seq = correlated_pair_sequence(60, 4, 0.9, seed=3)
        eager = solve_online_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8, min_observations=1
        )
        patient = solve_online_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8, min_observations=20
        )
        pair = frozenset({1, 2})
        assert eager.formation_times[pair] <= patient.formation_times[pair]

    def test_theta_one_disables_packing(self, unit_model):
        seq = correlated_pair_sequence(80, 6, 0.7, seed=4)
        res = solve_online_dp_greedy(seq, unit_model, theta=1.0, alpha=0.8)
        assert res.packages == ()


class TestDecisionCounters:
    def test_free_transfers_still_count_as_transfers(self):
        # under lam == 0 a transfer costs nothing, yet it is no hit: item
        # 7 starts at the origin, so the first two requests move it and
        # the third finds it on server 2
        state = OnlineDPGreedyState(CostModel(mu=1, lam=0), theta=0.3, alpha=0.8)
        got = [
            (out.paid, out.hits, out.transfers)
            for out in (
                state.step(Request(server, t, frozenset({7})))
                for server, t in ((1, 1.0), (2, 2.0), (2, 2.5))
            )
        ]
        assert got == [(0.0, 0, 1), (0.0, 0, 1), (0.0, 1, 0)]


class TestCostProperties:
    def test_no_packing_reduces_to_per_item_ski_rental(self, unit_model):
        seq = correlated_pair_sequence(60, 5, 0.0, seed=5)
        res = solve_online_dp_greedy(seq, unit_model, theta=1.0, alpha=0.8)
        expected = sum(
            solve_online_ski_rental(
                seq.restrict_to_item(d), unit_model, build_schedule=False
            ).cost
            for d in seq.items
        )
        assert res.total_cost == pytest.approx(expected)

    def test_denominator_matches_offline(self, unit_model):
        seq = correlated_pair_sequence(40, 4, 0.5, seed=6)
        on = solve_online_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        off = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        assert on.denominator == off.denominator

    def test_per_unit_costs_sum_to_total(self, unit_model):
        seq = correlated_pair_sequence(80, 6, 0.6, seed=7)
        res = solve_online_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        # per-unit costs exclude the extra package-ship ledger, so they
        # lower-bound the total
        assert sum(res.per_unit_cost.values()) <= res.total_cost + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_never_beats_offline_nonpacking_optimum_without_discount(
        self, seq, model
    ):
        """With alpha = 1 packing carries no discount, so the on-line
        policy cannot beat the off-line per-item optimum."""
        res = solve_online_dp_greedy(seq, model, theta=0.3, alpha=1.0)
        off = solve_optimal_nonpacking(seq, model)
        assert res.total_cost >= off.total_cost - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_replay_is_deterministic(self, seq, model):
        a = solve_online_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        b = solve_online_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        assert a.total_cost == b.total_cost
        assert a.packages == b.packages

    def test_stays_within_moderate_factor_of_offline(self, unit_model):
        seq = correlated_pair_sequence(150, 10, 0.5, seed=8)
        on = solve_online_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        off = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        assert on.total_cost <= 5.0 * off.total_cost

    def test_parameter_validation(self, unit_model):
        seq = correlated_pair_sequence(10, 2, 0.5, seed=9)
        with pytest.raises(ValueError, match="alpha"):
            solve_online_dp_greedy(seq, unit_model, theta=0.3, alpha=0.0)
        with pytest.raises(ValueError, match="theta"):
            solve_online_dp_greedy(seq, unit_model, theta=-0.1, alpha=0.8)
