"""Equivalence of the sparse-frontier DP against the dense reference.

The sparse backend (default) must reproduce the dense sweeps exactly:
bit-identical costs everywhere (both accumulate the same left-to-right
float charge sums), and identical decision/backbone paths away from
exact cost ties (ties are measure-zero under continuous random times;
the seeded-RNG cases below draw from that regime, while the hypothesis
cases -- which can produce ties -- still pin cost equality and schedule
feasibility).  The brute-force oracle certifies optimality end to end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.brute_force import brute_force_cost
from repro.cache.model import CostModel, SingleItemView
from repro.cache.optimal_dp import _transfer_sources, optimal_cost, solve_optimal
from repro.cache.schedule import CacheInterval, validate_schedule

from ..conftest import cost_models, single_item_views


def _random_view(rng: np.random.Generator, n: int, m: int) -> SingleItemView:
    """Continuous-uniform gaps: exact cost ties have probability zero."""
    servers = tuple(int(x) for x in rng.integers(0, m, n))
    times = tuple(float(x) for x in np.cumsum(rng.uniform(0.05, 3.0, n)))
    return SingleItemView(
        servers=servers, times=times, num_servers=m,
        origin=int(rng.integers(0, m)),
    )


class TestSparseDenseEquivalence:
    @given(v=single_item_views(), model=cost_models())
    @settings(max_examples=120, deadline=None)
    def test_costs_bit_identical_and_brute_force_optimal(self, v, model):
        rs = solve_optimal(v, model)
        rd = solve_optimal(v, model, backend="dense")
        cs = optimal_cost(v, model)
        cd = optimal_cost(v, model, backend="dense")
        assert rs.cost == rd.cost == cs == cd
        assert rs.cost == pytest.approx(brute_force_cost(v, model))

    @given(v=single_item_views(), model=cost_models())
    @settings(max_examples=80, deadline=None)
    def test_sparse_schedule_is_feasible_and_priced_right(self, v, model):
        res = solve_optimal(v, model)
        validate_schedule(res.schedule, v)
        assert res.schedule.cost(model) == pytest.approx(res.cost)

    @pytest.mark.parametrize("seed", range(12))
    def test_decision_paths_match_on_continuous_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        m = int(rng.integers(1, 9))
        v = _random_view(rng, n, m)
        model = CostModel(
            mu=float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0])),
            lam=float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0])),
        )
        rs = solve_optimal(v, model)
        rd = solve_optimal(v, model, backend="dense")
        assert rs.cost == rd.cost
        assert rs.decisions == rd.decisions
        assert rs.backbone_gaps == rd.backbone_gaps
        assert rs.schedule.intervals == rd.schedule.intervals
        assert rs.schedule.transfers == rd.schedule.transfers

    @pytest.mark.parametrize("seed", range(6))
    def test_rate_multiplier_consistency(self, seed):
        rng = np.random.default_rng(100 + seed)
        v = _random_view(rng, int(rng.integers(1, 60)), 5)
        model = CostModel(mu=1.0, lam=2.0)
        rate = 1.6
        rs = solve_optimal(v, model, rate_multiplier=rate, build_schedule=False)
        rd = solve_optimal(
            v, model, rate_multiplier=rate, build_schedule=False, backend="dense"
        )
        assert rs.cost == rd.cost
        assert rs.cost == optimal_cost(v, model, rate_multiplier=rate)

    def test_empty_view(self, unit_model):
        v = SingleItemView(servers=(), times=(), num_servers=3, origin=1)
        for backend in ("sparse", "dense"):
            res = solve_optimal(v, unit_model, backend=backend)
            assert res.cost == 0.0
            assert res.decisions == (-1,)
            assert optimal_cost(v, unit_model, backend=backend) == 0.0

    def test_unknown_backend_rejected(self, unit_model):
        # the names of removed kernels fail loudly, never fall back
        v = SingleItemView(servers=(0,), times=(1.0,), num_servers=1, origin=0)
        for backend in (
            "blocked", "batched", "BATCHED", "compiled", "COMPILED", "auto", ""
        ):
            with pytest.raises(ValueError, match="backend"):
                solve_optimal(v, unit_model, backend=backend)
            with pytest.raises(ValueError, match="backend"):
                optimal_cost(v, unit_model, backend=backend)

    @given(v=single_item_views(min_requests=1), model=cost_models())
    @settings(max_examples=60, deadline=None)
    def test_cost_only_matches_full_solve(self, v, model):
        assert optimal_cost(v, model) == solve_optimal(v, model).cost


class TestTransferSourceSweep:
    """The heap sweep must replicate the old linear scan exactly."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        intervals = []
        for _ in range(int(rng.integers(0, 40))):
            start = float(rng.uniform(0.0, 50.0))
            intervals.append(
                CacheInterval(
                    server=int(rng.integers(0, 5)),
                    start=start,
                    end=start + float(rng.uniform(0.0, 10.0)),
                )
            )
        times = np.sort(rng.uniform(0.0, 60.0, int(rng.integers(0, 30))))
        queries = [(float(t), int(rng.integers(0, 5))) for t in times]

        def naive(t, dst):
            for iv in intervals:
                if iv.covers(t) and iv.server != dst:
                    return iv.server
            return None

        expected = [naive(t, dst) for t, dst in queries]
        assert _transfer_sources(intervals, queries) == expected

    def test_endpoint_slack_matches_covers(self):
        iv = CacheInterval(server=0, start=1.0, end=2.0)
        # exactly the CacheInterval.covers tolerance: endpoints inclusive
        queries = [(1.0 - 5e-10, 1), (2.0 + 5e-10, 1), (2.1, 1)]
        assert _transfer_sources([iv], queries) == [0, 0, None]


class TestAttributionReconciles:
    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_attribution_sums_to_cost(self, seed):
        from repro.cache.optimal_dp import attribute_cost

        rng = np.random.default_rng(300 + seed)
        v = _random_view(rng, int(rng.integers(1, 80)), 6)
        model = CostModel(mu=2.0, lam=1.0)
        res = solve_optimal(v, model, build_schedule=False)
        entries = attribute_cost(v, model, res)
        assert math.fsum(a for _, _, a in entries) == pytest.approx(res.cost)
