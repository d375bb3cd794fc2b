"""Tests for the optimal off-line DP, certified against the oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.brute_force import brute_force_cost
from repro.cache.model import CostModel, RequestSequence, SingleItemView
from repro.cache.optimal_dp import optimal_cost, solve_optimal
from repro.cache.schedule import validate_schedule

from ..conftest import cost_models, single_item_views


def view(servers, times, m=4, origin=0):
    return SingleItemView(
        servers=tuple(servers), times=tuple(times), num_servers=m, origin=origin
    )


class TestExamples:
    def test_empty_sequence_is_free(self, unit_model):
        res = solve_optimal(view([], []), unit_model)
        assert res.cost == 0.0
        assert res.schedule is not None
        assert res.schedule.cost(unit_model) == 0.0

    def test_paper_first_request(self, unit_model):
        """Section V.C: C(0.8) = 0.8*mu + lam (cache from origin + transfer)."""
        res = solve_optimal(view([1], [0.8]), unit_model)
        assert res.cost == pytest.approx(1.8)

    def test_first_request_on_origin_is_cache_only(self, unit_model):
        res = solve_optimal(view([0], [0.8]), unit_model)
        assert res.cost == pytest.approx(0.8)

    def test_running_example_package_nodes(self, unit_model):
        """The V.C co-occurrence trajectory at package rates costs 9.60."""
        v = view([1, 2, 1], [0.8, 1.4, 4.0])
        res = solve_optimal(v, unit_model, rate_multiplier=1.6)
        assert res.cost == pytest.approx(9.6)

    def test_all_requests_same_server_is_one_chain(self, unit_model):
        v = view([0, 0, 0], [1.0, 2.0, 3.0])
        res = solve_optimal(v, unit_model)
        assert res.cost == pytest.approx(3.0)  # cache 0 -> 3, no transfers
        assert res.schedule.num_transfers == 0

    def test_two_far_requests_prefer_retransfer(self):
        # gap cost far exceeds lam twice over: drop and re-transfer
        model = CostModel(mu=10.0, lam=1.0)
        v = view([1, 2, 1], [0.1, 0.2, 0.3])
        res = solve_optimal(v, model)
        validate_schedule(res.schedule, v)
        # backbone persistence is still mandatory: 0.3 time units minimum
        assert res.cost >= 0.3 * 10.0

    def test_rate_multiplier_scales_linearly(self, unit_model):
        v = view([1, 2, 3], [1.0, 2.0, 3.0])
        base = solve_optimal(v, unit_model).cost
        scaled = solve_optimal(v, unit_model, rate_multiplier=1.6).cost
        assert scaled == pytest.approx(1.6 * base)

    def test_zero_time_request_rejected(self, unit_model):
        with pytest.raises(ValueError, match="strictly positive"):
            solve_optimal(view([1], [0.0]), unit_model)

    def test_accepts_request_sequence(self, unit_model):
        seq = RequestSequence([(1, 1.0, {7}), (2, 2.0, {7})], num_servers=3)
        res = solve_optimal(seq, unit_model)
        assert res.cost > 0

    def test_cost_only_mode_returns_no_schedule(self, unit_model):
        res = solve_optimal(view([1], [1.0]), unit_model, build_schedule=False)
        assert res.schedule is None
        assert res.cost == pytest.approx(2.0)

    def test_decisions_reported(self, unit_model):
        v = view([0, 0], [1.0, 2.0])
        res = solve_optimal(v, unit_model)
        # event 0 (origin) keeps to serve t=1, event 1 keeps to serve t=2
        assert res.decisions[0] == 1
        assert res.decisions[1] == 1


class TestHandBuiltViewAudit:
    """A view without links is hand-built, so the DP prologue audits it
    as ``RequestSequence.validate`` audits a sequence.  Unchecked, these
    inputs priced differently on the two backends (a NaN time) or
    silently (times out of order, servers outside the universe)."""

    CASES = [
        pytest.param((0, 1, 0), (1.0, math.nan, 2.0),
                     r"request\[1\] .*time is NaN", id="nan-time"),
        pytest.param((0, 1, 0), (1.0, 3.0, 2.0),
                     r"request\[2\] .*strictly increasing \(previous was 3\.0\)",
                     id="out-of-order"),
        pytest.param((0, 5, 0), (1.0, 2.0, 3.0),
                     r"request\[1\] \(server 5.*outside \[0, 2\)",
                     id="server-too-large"),
        pytest.param((0, -1, 0), (1.0, 2.0, 3.0),
                     r"request\[1\] \(server -1.*outside \[0, 2\)",
                     id="negative-server"),
        pytest.param((0, 1, 0), (1.0, math.inf, 5.0),
                     r"request\[1\] .*time is infinite", id="infinite-time"),
    ]

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    @pytest.mark.parametrize("servers,times,message", CASES)
    def test_malformed_view_rejected_with_index(
        self, servers, times, message, backend
    ):
        v = SingleItemView(servers=servers, times=times, num_servers=2, origin=0)
        model = CostModel(1, 1)
        with pytest.raises(ValueError, match=message):
            optimal_cost(v, model, backend=backend)
        with pytest.raises(ValueError, match=message):
            solve_optimal(v, model, backend=backend)

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_array_backed_view_audited_too(self, backend):
        v = SingleItemView(
            servers=np.array([0, 1, 0]), times=np.array([1.0, math.nan, 2.0]),
            num_servers=2, origin=0,
        )
        with pytest.raises(ValueError, match=r"request\[1\] .*NaN"):
            optimal_cost(v, CostModel(1, 1), backend=backend)

    @pytest.mark.parametrize("origin,m", [(2, 2), (-1, 2), (0, 0)])
    def test_origin_and_universe_audited(self, origin, m):
        v = SingleItemView(servers=(), times=(), num_servers=m, origin=origin)
        with pytest.raises(ValueError, match="origin server|num_servers"):
            optimal_cost(v, CostModel(1, 1))


class TestAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(v=single_item_views(), model=cost_models())
    def test_dp_matches_brute_force(self, v, model):
        dp = solve_optimal(v, model, build_schedule=False)
        assert dp.cost == pytest.approx(brute_force_cost(v, model))

    @settings(max_examples=120, deadline=None)
    @given(v=single_item_views(), model=cost_models())
    def test_fast_path_matches_dp(self, v, model):
        dp = solve_optimal(v, model, build_schedule=False)
        assert optimal_cost(v, model) == pytest.approx(dp.cost)

    @settings(max_examples=120, deadline=None)
    @given(v=single_item_views(min_requests=1), model=cost_models())
    def test_schedule_is_feasible_and_priced_exactly(self, v, model):
        res = solve_optimal(v, model)
        validate_schedule(res.schedule, v)
        assert res.schedule.cost(model) == pytest.approx(res.cost)

    @settings(max_examples=60, deadline=None)
    @given(v=single_item_views(min_requests=1), model=cost_models())
    def test_adding_a_request_never_reduces_cost(self, v, model):
        shorter = SingleItemView(
            servers=v.servers[:-1],
            times=v.times[:-1],
            num_servers=v.num_servers,
            origin=v.origin,
        )
        assert (
            optimal_cost(shorter, model) <= optimal_cost(v, model) + 1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(v=single_item_views(), model=cost_models())
    def test_uniform_scaling_invariance(self, v, model):
        """Scaling both rates by c scales the optimum by c (decisions fixed)."""
        c1 = optimal_cost(v, model)
        c2 = optimal_cost(v, model.scaled(2.5))
        assert c2 == pytest.approx(2.5 * c1)


class TestLargerDeterministic:
    def test_medium_instance_fast_equals_slow(self, unit_model):
        from repro.trace.workload import random_single_item_view

        v = random_single_item_view(60, 8, seed=3)
        slow = solve_optimal(v, unit_model, build_schedule=True)
        fast = optimal_cost(v, unit_model)
        assert fast == pytest.approx(slow.cost)
        validate_schedule(slow.schedule, v)

    def test_zero_lambda_everything_transfers(self):
        model = CostModel(mu=1.0, lam=0.0)
        v = view([1, 2, 3], [1.0, 2.0, 3.0])
        res = solve_optimal(v, model)
        # only persistence caching is charged
        assert res.cost == pytest.approx(3.0)
        validate_schedule(res.schedule, v)


class TestThoroughOracleCrossCheck:
    """Deeper (slower) certification at the oracle's size limits."""

    def test_larger_instances_match_brute_force(self, unit_model):
        import random

        from repro.cache.brute_force import MAX_REQUESTS, MAX_SERVERS

        rng = random.Random(99)
        for trial in range(40):
            n = rng.randint(8, MAX_REQUESTS)
            m = rng.randint(4, MAX_SERVERS)
            t, times, servers = 0.0, [], []
            for _ in range(n):
                t += rng.uniform(0.05, 4.0)
                times.append(round(t, 6))
                servers.append(rng.randrange(m))
            v = SingleItemView(
                servers=tuple(servers), times=tuple(times),
                num_servers=m, origin=rng.randrange(m),
            )
            model = CostModel(
                mu=rng.choice([0.25, 1.0, 3.0]), lam=rng.choice([0.25, 1.0, 3.0])
            )
            from repro.cache.brute_force import brute_force_cost

            dp = solve_optimal(v, model)
            assert dp.cost == pytest.approx(brute_force_cost(v, model))
            validate_schedule(dp.schedule, v)
            assert dp.schedule.cost(model) == pytest.approx(dp.cost)
